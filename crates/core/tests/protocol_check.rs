//! Explicit-state **crash-consistency model checker** for the coherence
//! protocol core.
//!
//! A `World` is one home node (a real [`HomeMachine`] + [`LockTable`] plus
//! its dentry and drain/retry bookkeeping), two remote nodes (each a dentry
//! snapshot driven through the *pure* [`CacheMachine`] plus an application
//! slot and a lock slot), and four FIFO links (home→remote and remote→home
//! per remote). The checker runs a bounded depth-first search over every
//! interleaving of:
//!
//! * message deliveries (one per FIFO link),
//! * local drains (remote Figure-5 drains, the home drain, the grace retry),
//! * application requests (Read / Write / Operate, budget-limited),
//! * element-lock acquire/release (budget-limited), including write-intent
//!   locks (DESIGN.md §4.5) in the combined search: the grant also runs the
//!   home's write miss for the lock's chunk and the grantee's, and carries
//!   the release rule, so the release either evicts the grantee's Exclusive
//!   copy or downgrades it to Shared,
//! * evictions (budget-limited), and
//! * **node kills** — fail-stop crashes modeled exactly as the runtime sees
//!   them: every surviving prefix of the victim's in-flight messages is
//!   explored, followed by a `Down` marker appended *last* on each link out
//!   of the victim (FIFO delivery means survivors consume all of the
//!   victim's accepted traffic before learning of its death). Since the
//!   quorum membership layer (DESIGN.md §12), the marker models a
//!   *quorum-confirmed* death declaration — it can only exist because the
//!   victim actually died, which is exactly the guarantee the quorum
//!   protocol provides; and
//! * **false suspicions** — the home may *suspect* a live remote
//!   (`Suspect`), which parks its outgoing link exactly as the reliability
//!   agent parks a suspected peer's send queue: nothing is discarded,
//!   delivery just stops. While the suspect is alive the only resolution is
//!   an internal `Refute` (its heartbeats keep its lease fresh at the other
//!   voters, so the quorum can never confirm), which unparks the link and
//!   replays delivery in order. If the suspect *is* killed mid-suspicion,
//!   its `Down` marker confirms the death instead. Safety asserts a live
//!   peer is never declared dead, so no reachable interleaving reclaims a
//!   live peer's locks or discards its Dirty writes.
//!
//! One engine ([`Search`]) runs the depth-first search for every world that
//! implements [`Model`]: this `World` and the elastic re-homing world of
//! [`migration`]. It memoizes each world by its derived `Hash`, so the
//! search explores each reachable world once. At every state the checker
//! asserts crash-safety invariants (single writer, one operator at a time,
//! a directory that lists each holder once and never the home, a stable
//! directory with nothing queued and the home dentry its state implies, no
//! bookkeeping references to known-dead nodes, no orphaned lock holders);
//! at every *quiescent* state (no internal transition enabled) it asserts
//! liveness: no transient pending, no application thread parked forever,
//! every lock waiter has a live holder to wait on, and the directory agrees
//! with every survivor's dentry. Every search records the (stable state ×
//! request) cells, (transient × event) pairs and home transitions it fed
//! the home machines ([`Cells`]) and asserts the ones it exists to reach.
//! Any violation panics with the transition trace that reached it
//! and writes it to `DARRAY_MC_TRACE_FILE` (default
//! `target/model-check-counterexample.txt`), the one knob. The trace is the
//! first path the search found, not necessarily the shortest. A search that
//! reaches [`MAX_DEPTH`] or [`MAX_STATES`] fails too, so a passing search
//! has explored its whole world.

use std::collections::{BTreeSet, HashSet, VecDeque};
use std::fmt::{self, Debug, Display, Write as _};
use std::hash::{DefaultHasher, Hash, Hasher};

use darray::protocol::{
    AfterDrain, CacheAction, CacheEvent, CacheMachine, CacheView, Counter, Delivery, HomeAction,
    HomeEvent, HomeMachine, Kind, LockKind, LockSource, LockTable, Msg, Request, Requester,
    LINE_NONE, NOTAG,
};
use darray::{DirState, LocalState};

/// Node id of the home node.
const HOME: usize = 0;
/// Number of remote nodes (node ids `1..=NREM`).
const NREM: usize = 2;
/// The single lock element the model contends on.
const ELEM: u64 = 7;
/// The operator id used by `Kind::Operate` requests.
const OP: u32 = 7;
/// The second operator of a world whose operators mix.
const OP2: u32 = 9;
/// Completion token for the home node's application slot.
const APP_TOKEN: u32 = 100;
/// Completion token for the home node's lock slot.
const LOCK_TOKEN: u32 = 200;
/// Completion token of the home-local Write an intent grant runs; nothing
/// waits on it.
const PULL_TOKEN: u32 = 300;
/// The one cacheline index the model allocates.
const LINE: u32 = 1;

/// The request kinds: a world issues the first three, a three-leg world
/// the first two, and a world whose operators mix all four.
const KINDS: [Kind; 4] = [
    Kind::Read,
    Kind::Write,
    Kind::Operate(OP),
    Kind::Operate(OP2),
];
const LKINDS: [LockKind; 2] = [LockKind::Read, LockKind::Write];

// ---------------------------------------------------------------------------
// Search engine
// ---------------------------------------------------------------------------

/// Longest path a search follows. Reaching it fails the search.
const MAX_DEPTH: usize = 96;
/// Most states one search may memoize.
const MAX_STATES: usize = 5_000_000;

/// A world the engine can search: its transitions, how one executes, and
/// the invariants it must keep. The derived `Hash` is the memo key, so
/// every field that influences future behavior must live in the world, and
/// nothing else: accounting lives in [`Model::Ck`]. `Debug` is formatted
/// only for a counterexample.
trait Model: Clone + Debug + Hash {
    /// One atomic step of the world.
    type Tr: Copy;
    /// Coverage tallies, kept outside the world so that accounting never
    /// splits otherwise-identical states.
    type Ck: Default;
    /// Protocol progress. A world with none enabled is *quiescent*.
    fn internal(&self) -> Vec<Self::Tr>;
    /// External stimuli.
    fn external(&self) -> Vec<Self::Tr>;
    /// Human-readable label for `tr`, used in counterexample traces.
    fn label(&self, tr: Self::Tr) -> String;
    /// Execute `tr` on this world.
    fn apply(&mut self, s: &mut Search<Self>, tr: Self::Tr);
    /// Safety: must hold in **every** reachable state.
    fn check_safety(&self, s: &mut Search<Self>);
    /// Liveness: must hold whenever no internal transition is enabled. The
    /// world has quiesced: nothing makes progress again without a new
    /// external stimulus, so anything still pending is stuck forever.
    fn check_quiescence(&self, s: &mut Search<Self>);
}

/// One depth-first search over every interleaving of a world's
/// transitions.
struct Search<M: Model> {
    /// Hashes of the worlds reached so far.
    seen: HashSet<u64>,
    /// Labels of the transitions that led to the current world.
    trace: Vec<String>,
    quiescent: usize,
    ck: M::Ck,
    /// Where a counterexample is written, if anywhere.
    report_file: Option<String>,
}

impl<M: Model> Search<M> {
    fn new(report_file: Option<String>) -> Self {
        Search {
            seen: HashSet::new(),
            trace: Vec::new(),
            quiescent: 0,
            ck: M::Ck::default(),
            report_file,
        }
    }

    fn dfs(&mut self, w: &M, depth: usize) {
        // `DefaultHasher::new()` uses fixed keys, so runs are reproducible.
        let mut h = DefaultHasher::new();
        w.hash(&mut h);
        if !self.seen.insert(h.finish()) {
            return;
        }
        if self.seen.len() > MAX_STATES {
            self.fail(w, "state-space budget exceeded");
        }
        w.check_safety(self);
        let mut all = w.internal();
        if all.is_empty() {
            self.quiescent += 1;
            w.check_quiescence(self);
        }
        if depth == MAX_DEPTH {
            self.fail(w, "depth bound reached before the world was explored");
        }
        all.extend(w.external());
        for tr in all {
            let mut child = w.clone();
            self.trace.push(w.label(tr));
            child.apply(self, tr);
            self.dfs(&child, depth + 1);
            self.trace.pop();
        }
    }

    /// Report a violation: the transition trace that reached it and the
    /// final world, written to `report_file` and carried by the panic.
    fn fail(&self, w: &M, msg: &str) -> ! {
        let mut report = format!(
            "states explored: {}\ncounterexample trace ({} steps):\n",
            self.seen.len(),
            self.trace.len()
        );
        for (i, step) in self.trace.iter().enumerate() {
            let _ = writeln!(report, "  {:3}. {step}", i + 1);
        }
        let _ = writeln!(report, "final world:\n{w:#?}");
        if let Some(path) = &self.report_file {
            let _ = std::fs::write(path, format!("MODEL CHECK FAILED: {msg}\n{report}"));
            eprintln!("(trace written to {path})");
        }
        panic!("model check failed: {msg}\n{report}");
    }
}

/// Search every world reachable from `w`, then print the `[name]` summary
/// line. A search that prunes a state fails, so `depth_pruned` is always 0.
fn explore<M: Model>(name: &str, w: M) -> Search<M>
where
    M::Ck: Display + AsRef<Cells>,
{
    let path = std::env::var("DARRAY_MC_TRACE_FILE").unwrap_or_else(|_| {
        concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../target/model-check-counterexample.txt"
        )
        .to_string()
    });
    let mut s = Search::new(Some(path));
    s.dfs(&w, 0);
    println!(
        "[{name}] states={} quiescent={} depth_pruned=0 {}",
        s.seen.len(),
        s.quiescent,
        s.ck
    );
    println!("[{name}-cells] {}", s.ck.as_ref());
    s
}

/// What a search fed its home machines, recorded at every `on_event` call:
/// the (stable state × request) cells, the (transient × event) pairs and
/// the home transitions. Each search asserts the ones it exists to reach,
/// and prints how many of each it reached on its `[<name>-cells]` line.
#[derive(Default)]
struct Cells {
    /// (state, its holders, kind, requester) of every request that reached
    /// a stable machine. An Operated chunk's holders are its sharers, and
    /// `Operate-other` names another operator than its own.
    requests: BTreeSet<(&'static str, usize, &'static str, &'static str)>,
    /// (transient, event) of every event fed.
    pairs: BTreeSet<(&'static str, &'static str)>,
    /// (from, to, trigger) of every home transition traced.
    transitions: BTreeSet<(&'static str, &'static str, &'static str)>,
}

impl Cells {
    /// Feed `ev` to `m` and record it and the transitions it traced.
    fn run(
        &mut self,
        m: &mut HomeMachine<u32>,
        now: u64,
        grace: u64,
        ev: HomeEvent<u32>,
    ) -> Vec<HomeAction<u32>> {
        use HomeEvent as E;
        let event = match &ev {
            E::Request(_) => "Request",
            E::InvAck { .. } => "InvAck",
            E::EvictNotice { .. } => "EvictNotice",
            E::Writeback { .. } => "Writeback",
            E::FillAck { .. } => "FillAck",
            E::IntentGrant { .. } => "IntentGrant",
            E::Flush { .. } => "Flush",
            E::Drained => "Drained",
            E::RetryExpired => "RetryExpired",
            E::PeerDown { .. } => "PeerDown",
            E::PersistDone { .. } => "PersistDone",
            E::PeerRestarted { .. } => "PeerRestarted",
            E::BeginMigration { .. } => "BeginMigration",
            E::MigrateData { .. } => "MigrateData",
            E::MigrateAck { .. } => "MigrateAck",
            E::MigrateCommit { .. } => "MigrateCommit",
        };
        self.pairs.insert((m.transient().name(), event));
        if let (E::Request(req), true) = (&ev, m.transient().is_none()) {
            let (holders, op) = match m.state() {
                DirState::Unshared => (0, None),
                DirState::Dirty { .. } => (1, None),
                DirState::Shared { sharers } => (sharers.len(), None),
                DirState::Operated { op, sharers } => (sharers.len(), Some(op.0)),
            };
            let kind = match req.kind {
                Kind::Read => "Read",
                Kind::Write => "Write",
                Kind::Operate(o) if op.is_some_and(|op| op != o) => "Operate-other",
                Kind::Operate(_) => "Operate",
            };
            let source = match req.source {
                Requester::Local(_) => "Local",
                Requester::Remote { .. } => "Remote",
                Requester::Migration { .. } => "Migration",
            };
            self.requests
                .insert((m.state().name(), holders, kind, source));
        }
        let actions = m.on_event(now, grace, ev);
        for a in &actions {
            if let HomeAction::Trace(t) = a {
                self.transitions.insert((t.from, t.to, t.trigger));
            }
        }
        actions
    }
}

/// Fail unless a search reached every one of `want`.
fn assert_reached<T: Ord + Debug>(reached: &BTreeSet<T>, want: &[T]) {
    for cell in want {
        assert!(reached.contains(cell), "never reached: {cell:?}");
    }
}

impl Display for Cells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "requests={} pairs={} transitions={}",
            self.requests.len(),
            self.pairs.len(),
            self.transitions.len()
        )
    }
}

// ---------------------------------------------------------------------------
// World state
// ---------------------------------------------------------------------------

/// One in-flight frame. Links are FIFO; `Down` is the failure-detector
/// marker and is always the last frame on a dead node's link.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Frame {
    /// A coherence message, delivered through [`Msg::deliver`].
    Coherence(Msg),
    /// A fill or writeback notice behind the one-sided WRITE of the value
    /// it carries (only the three-leg world tracks values).
    Data {
        msg: Msg,
        val: u8,
    },
    // home → remote
    LockGrant {
        kind: LockKind,
        intent: bool,
        /// The release rule: the grantee's unlock keeps a Shared copy.
        keep: bool,
        /// A directed grant (DESIGN.md §4.5): the home served the
        /// grantee's write at the grant, and the grantee collects this
        /// many sharers' acks.
        acks: Option<u32>,
        /// The chunk's value a directed grant to a node the directory did
        /// not list carries.
        data: Option<u8>,
    },
    // remote → home
    LockAcq {
        kind: LockKind,
        intent: bool,
    },
    LockRel {
        kind: LockKind,
    },
    // either direction
    Down {
        dead: usize,
    },
    /// The home's *new incarnation* announcing itself after a restart
    /// (`RtMsg::PeerRestarted` fan-out): the remote must treat every right
    /// granted by the old incarnation as void.
    Restarted,
}

/// One node's application slot: at most one outstanding data request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum App {
    Idle,
    Waiting(Kind),
}

/// One node's lock slot: at most one outstanding element-lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Lock {
    Idle,
    Waiting(LockKind),
    Holding(LockKind),
}

/// A remote node: the dentry the cache machine sees, plus app/lock slots
/// and the budgets bounding how many external stimuli it may still issue.
#[derive(Debug, Clone, Hash)]
struct Remote {
    alive: bool,
    state: LocalState,
    op_tag: u32,
    line: u32,
    /// `Some` while a Figure-5 drain is pending (the continuation).
    after: Option<AfterDrain>,
    /// Has this node consumed the home's `Down` marker?
    home_down: bool,
    app: App,
    lock: Lock,
    /// The lock slot's request is a write-intent lock.
    intent: bool,
    /// The held intent lock's grant said to keep a Shared copy at unlock.
    keep: bool,
    req_budget: u8,
    lock_budget: u8,
    evict_budget: u8,
    /// The value in this node's line (the three-leg world tracks it).
    val: u8,
    /// The directed write's or grant's ack count (`CacheView::acks`, and
    /// `CacheView::granted`) the executor keeps beside the dentry.
    acks: i64,
    granted: bool,
    /// A message that waits for the pending drain: a directed
    /// invalidation's ack to the writer it named, or a directed grant's
    /// ack to the home.
    send_after_drain: Option<(usize, Msg)>,
}

impl Remote {
    fn fresh(req_budget: u8, lock_budget: u8, evict_budget: u8) -> Self {
        Remote {
            alive: true,
            state: LocalState::Invalid,
            op_tag: NOTAG,
            line: LINE_NONE,
            after: None,
            home_down: false,
            app: App::Idle,
            lock: Lock::Idle,
            intent: false,
            keep: false,
            req_budget,
            lock_budget,
            evict_budget,
            val: 0,
            acks: 0,
            granted: false,
            send_after_drain: None,
        }
    }

    /// Canonical corpse: every field zeroed so all post-mortem worlds that
    /// differ only in the victim's final state collapse into one.
    fn dead() -> Self {
        Remote {
            alive: false,
            state: LocalState::Invalid,
            op_tag: NOTAG,
            line: LINE_NONE,
            after: None,
            home_down: false,
            app: App::Idle,
            lock: Lock::Idle,
            intent: false,
            keep: false,
            req_budget: 0,
            lock_budget: 0,
            evict_budget: 0,
            val: 0,
            acks: 0,
            granted: false,
            send_after_drain: None,
        }
    }
}

/// The home node: the real directory machine and lock table, the home
/// dentry, and the home's own app/lock slots.
#[derive(Debug, Clone, Hash)]
struct Home {
    m: HomeMachine<u32>,
    locks: LockTable<u32>,
    /// The home dentry: (local state, operator tag).
    dentry: (LocalState, u32),
    /// A home-dentry reference drain is pending.
    draining: bool,
    /// Which remotes this node's failure detector has declared dead.
    knows_dead: [bool; NREM],
    app: App,
    lock: Lock,
    req_budget: u8,
    lock_budget: u8,
    /// The value in the home image (the three-leg world tracks it).
    image: u8,
    /// A directed grant waiting for the home drain to send it: the lock
    /// kind and the release rule.
    grant: Option<(LockKind, bool)>,
}

/// One explorable world state, memoized by its derived `Hash`: every field
/// that influences future behavior must live here (and nothing else:
/// accounting lives in [`Ck`]).
#[derive(Debug, Clone, Hash)]
struct World {
    /// `None` once the home node has been killed.
    home: Option<Home>,
    rem: [Remote; NREM],
    /// FIFO link home → remote `i+1`.
    h2r: [VecDeque<Frame>; NREM],
    /// FIFO link remote `i+1` → home.
    r2h: [VecDeque<Frame>; NREM],
    /// FIFO link remote `i+1` → the other remote: a three-leg recall's
    /// fill.
    r2r: [VecDeque<Frame>; NREM],
    /// The home's minimum-hold grace window (`grace_ns`), constant within
    /// a search.
    grace: u64,
    now: u64,
    /// A `ScheduleRetry { at }` is pending delivery.
    retry_at: Option<u64>,
    kill_budget: u8,
    /// Home-side suspicion flags: while `suspected[i]` the home's outgoing
    /// link to remote `i+1` is parked (no `DeliverH2R`), mirroring the
    /// reliability agent parking a suspected peer's send queue. Nothing is
    /// dropped; `Refute` (live suspect) or the `Down` marker (dead suspect)
    /// resolves it.
    suspected: [bool; NREM],
    /// How many `Suspect` stimuli may still be injected.
    suspect_budget: u8,
    /// Durable mode (DESIGN.md §14): the home machine gates dirty-data
    /// acknowledgements on a modeled chunk-store persist.
    durable: bool,
    /// A `PersistChunk { seq }` the executor has accepted but whose
    /// completion (`PersistDone`) has not yet been fed back. At most one:
    /// the machine parks in `AwaitPersist` until it resolves.
    pending_persist: Option<u64>,
    /// Highest persist sequence durably in the log. Survives home kills —
    /// that is the entire point of the log.
    disk_seq: u64,
    /// Highest persist sequence the protocol has *acknowledged* (completed
    /// the transient for). The persist-before-ack theorem is
    /// `acked_seq <= disk_seq` in every reachable state.
    acked_seq: u64,
    /// How many node restarts may still be injected.
    restart_budget: u8,
    /// Persist seq covered by the newest on-disk checkpoint generation
    /// (`.ckpt`), `None` when absent. Survives home kills — it is a file.
    ckpt: Option<u64>,
    /// Persist seq covered by the previous generation (`.ckpt.prev`) — the
    /// fallback a torn/CRC-bad newest checkpoint recovers from.
    ckpt_prev: Option<u64>,
    /// Highest seq whose log record compaction has truncated away. The
    /// lag-by-one rule keeps `trunc_floor <= ckpt_prev`: only the prefix
    /// covered by the *fallback* generation is ever dropped.
    trunc_floor: u64,
    /// An in-flight compaction: `(snapshot seq, next phase)`. Erased by a
    /// home kill — phases already applied are on disk, the rest never run.
    compacting: Option<(u64, CkPhase)>,
    /// How many compaction sequences may still be started.
    compact_budget: u8,
    /// Remote lock acquires may also take write-intent locks.
    intent_locks: bool,
    /// The home recalls a Dirty chunk for a remote read or write in three
    /// legs, and the world tracks the chunk's values: the last value
    /// written, which every readable copy must hold. Only reads and writes
    /// are issued (Operate takes no three-leg path, and its combined
    /// values are not tracked).
    three_leg: bool,
    /// The last value written (three-leg world).
    latest: u8,
    /// Requests may also name a second operator ([`OP2`]), so that an
    /// Operated chunk meets another operator's request (Figure 9's recall
    /// when operators mix).
    second_op: bool,
}

/// The crash-atomic phases of `LogChunkStore::checkpoint` (DESIGN.md §14),
/// in execution order. Each phase is one atomic disk operation (buffered
/// write + fsync, or a rename); the checker kills the home *between* any
/// two of them, which — together with each operation's own atomicity — is
/// exactly "a crash at any byte of the compaction sequence".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CkPhase {
    /// Write the full image to `.ckpt.tmp` and fsync it. Invisible to
    /// recovery: reopen deletes stale tmp files.
    WriteTmp,
    /// Rotate `.ckpt` → `.ckpt.prev`. The newest generation is momentarily
    /// absent; recovery in this window falls back to `.prev`.
    Rotate,
    /// Rename `.ckpt.tmp` → `.ckpt` (atomic): the new generation lands.
    Rename,
    /// Truncate the log prefix covered by `.ckpt.prev` (lag-by-one).
    Truncate,
}

impl CkPhase {
    fn name(self) -> &'static str {
        match self {
            CkPhase::WriteTmp => "WriteTmp",
            CkPhase::Rotate => "Rotate",
            CkPhase::Rename => "Rename",
            CkPhase::Truncate => "Truncate",
        }
    }
}

/// What a reopen of the modeled store recovers: the newest readable
/// checkpoint generation (`.ckpt`, falling back to `.prev` when absent or
/// torn — torn collapses to absent here, the CRC frame rejects it in full)
/// overlaid with the log suffix `(trunc_floor, disk_seq]`. A sound store
/// keeps every fallback generation ≥ `trunc_floor`, so the suffix splices
/// onto the checkpoint with no gap; if compaction ever truncated past the
/// fallback, the writes in the gap are gone and this returns less than
/// `disk_seq` — which the `acked_seq` safety check then catches.
fn recoverable(w: &World) -> u64 {
    let best = w.ckpt.or(w.ckpt_prev).unwrap_or(0);
    if best >= w.trunc_floor {
        best.max(w.disk_seq)
    } else {
        best
    }
}

// ---------------------------------------------------------------------------
// Coverage tallies (not part of the state key)
// ---------------------------------------------------------------------------

/// Coverage tallies of a [`World`] search. `Display` prints all but the
/// write-intent tallies, which only the combined search reports.
#[derive(Default)]
struct Ck {
    /// Home transient name at the instant each `Down` marker was consumed.
    pd_transients: BTreeSet<&'static str>,
    /// Home directory-state name at the instant each `Down` was consumed.
    pd_states: BTreeSet<&'static str>,
    /// Remote dentry state at the instant the home's `Down` was consumed.
    homedown_states: BTreeSet<&'static str>,
    /// Home transient name at each `RetryExpired` delivery.
    retry_transients: BTreeSet<&'static str>,
    epochs_aborted: usize,
    sharers_pruned: usize,
    locks_reclaimed: usize,
    reductions: usize,
    /// Suspicions of a live remote resolved by refutation.
    suspect_refutes: usize,
    /// Suspicions resolved by the suspect's actual death (its `Down` marker
    /// consumed while the suspicion was pending).
    suspect_confirms: usize,
    /// A live remote held Exclusive (unwritten Dirty data) while suspected —
    /// the exact state a unilateral declaration would destroy.
    suspected_dirty_states: usize,
    /// `PersistChunk` actions executed (durable mode).
    persists: usize,
    /// Persists the machine acknowledged (`Count(FlushPersists)`).
    persist_acks: usize,
    /// Home kills that landed while a persist was pending on disk.
    killed_mid_persist: usize,
    /// Home restarts (log replay + `Restarted` fan-out) injected.
    home_restarts: usize,
    /// Remote restarts (`HomeEvent::PeerRestarted` un-fencing) injected.
    remote_restarts: usize,
    /// Compaction sequences started (`StartCompaction` stimuli).
    compactions_started: usize,
    /// Compaction sequences that ran all four phases to completion.
    compactions_completed: usize,
    /// Phase names a home kill landed in while a compaction was in flight —
    /// the snapshot→rename→truncate crash matrix must cover all four.
    killed_mid_compaction: BTreeSet<&'static str>,
    /// Home restarts that recovered through a checkpoint generation (not
    /// pure log replay).
    restarts_from_checkpoint: usize,
    /// Simultaneous two-victim kills injected (`KillBoth`).
    double_kills: usize,
    /// Reachable states in which the home had confirmed BOTH remote deaths.
    both_dead_states: usize,
    /// Write-intent grants sent to a live grantee.
    intent_grants: usize,
    /// Intent grants that ran the home's write miss for the lock's chunk.
    intent_pulls: usize,
    /// Intent releases that evicted the grantee's Exclusive copy.
    hand_backs: usize,
    /// Intent releases that downgraded the grantee's copy to Shared, as
    /// their grant said.
    keeps: usize,
    /// How remote chunks left the idle Operated state (the trigger of each
    /// transition out of `OperatedIdle`: a re-acquire, an idle recall, a
    /// request for other rights, a home restart).
    idle_exits: BTreeSet<&'static str>,
    /// Three-leg fills a recalled owner sent, read (keep) and write.
    direct_read_fills: usize,
    direct_write_fills: usize,
    /// Owner writebacks that crossed a three-leg recall: a voluntary
    /// writeback (an eviction) and an intent unlock's downgrade.
    crossing_writebacks: usize,
    crossing_downgrades: usize,
    /// Requests that reached the home while a three-leg recall was
    /// pending, and queued behind it.
    queued_behind_direct: usize,
    /// Reads the home served while a three-leg read recall awaited its
    /// requester's ack.
    reads_during_direct: usize,
    /// Directed writes the home served (DESIGN.md §4.2).
    directed_writes: usize,
    /// Sharers' acks that reached a directed writer ahead of its fill.
    acks_before_fill: usize,
    /// Directed invalidations that found their sharer's copy already gone
    /// (its eviction crossed them), mid-drain, or still filling after a
    /// new request.
    directed_crossed: usize,
    directed_mid_drain: usize,
    directed_filling: usize,
    /// Requests that reached the home while it awaited a directed writer's
    /// ack, and queued behind it.
    queued_behind_directed: usize,
    /// Write-intent grants served directed (DESIGN.md §4.5), to a sharer
    /// of the chunk and, carrying the chunk's value, to a node the
    /// directory did not list; data grants a filling grantee declined; and
    /// intent grants that pulled the chunk as before.
    grants_to_sharers: usize,
    grants_to_non_sharers: usize,
    grants_declined: usize,
    grants_pulled: usize,
    /// Sharers' acks that reached a grantee ahead of its directed grant.
    acks_before_grant: usize,
    /// Eviction notices from a directed grant's grantee that crossed the
    /// grant, and grants that ended with the grantee holding no copy.
    evictions_crossing_grant: usize,
    grants_empty: usize,
    /// Intent unlocks while the directed grant still counted acks.
    unlocks_before_last_ack: usize,
    /// What the search fed the home machine, printed on its own line.
    cells: Cells,
}

impl AsRef<Cells> for Ck {
    fn as_ref(&self) -> &Cells {
        &self.cells
    }
}

impl Display for Ck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pd_transients={:?} pd_states={:?} homedown_states={:?} retry_transients={:?} \
             epochs_aborted={} sharers_pruned={} locks_reclaimed={} reductions={} \
             suspect_refutes={} suspect_confirms={} suspected_dirty_states={} \
             persists={} persist_acks={} killed_mid_persist={} home_restarts={} \
             remote_restarts={} compactions={}/{} killed_mid_compaction={:?} \
             restarts_from_checkpoint={} double_kills={} both_dead_states={} idle_exits={:?}",
            self.pd_transients,
            self.pd_states,
            self.homedown_states,
            self.retry_transients,
            self.epochs_aborted,
            self.sharers_pruned,
            self.locks_reclaimed,
            self.reductions,
            self.suspect_refutes,
            self.suspect_confirms,
            self.suspected_dirty_states,
            self.persists,
            self.persist_acks,
            self.killed_mid_persist,
            self.home_restarts,
            self.remote_restarts,
            self.compactions_completed,
            self.compactions_started,
            self.killed_mid_compaction,
            self.restarts_from_checkpoint,
            self.double_kills,
            self.both_dead_states,
            self.idle_exits,
        )
    }
}

// ---------------------------------------------------------------------------
// Transitions
// ---------------------------------------------------------------------------

/// One atomic step of the world. `Deliver*`, `Drain*` and `Retry` are
/// *internal* (protocol progress); the rest are external stimuli. A state
/// with no internal transition enabled is *quiescent* and must satisfy the
/// liveness conditions of [`Model::check_quiescence`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tr {
    DeliverH2R(usize),
    DeliverR2H(usize),
    /// Deliver the next frame from remote `i+1` to the other remote.
    DeliverR2R(usize),
    DrainRemote(usize),
    DrainHome,
    Retry,
    AppHome(Kind),
    AppRemote(usize, Kind),
    LockHomeAcq(LockKind),
    LockHomeRel,
    LockRemoteAcq(usize, LockKind),
    /// Remote `i+1` takes a write-intent lock.
    LockRemoteIntent(usize),
    LockRemoteRel(usize),
    Evict(usize),
    /// Kill `victim`, keeping the first `keep[i]` messages of each of its
    /// outgoing links (prefix truncation models messages lost in flight).
    /// `flush_disk` branches the fate of a pending persist when the home is
    /// the victim: did the record reach the log before the crash?
    Kill {
        victim: usize,
        keep: [usize; 2],
        flush_disk: bool,
    },
    /// Kill BOTH remotes at once — two simultaneous quorum-confirmed
    /// deaths, each with its own surviving prefix. Costs two kill budget.
    KillBoth {
        keep: [usize; 2],
    },
    /// Begin a checkpoint/compaction sequence (durable mode): snapshot the
    /// synced log (`disk_seq`) and walk the [`CkPhase`] ladder.
    StartCompaction,
    /// The store executes the next compaction phase (guaranteed progress —
    /// `checkpoint` runs synchronously under the store lock).
    CompactStep,
    /// The modeled disk completes the pending persist: the record is in the
    /// log and `HomeEvent::PersistDone` resumes the parked acknowledgement.
    PersistDone,
    /// Restart `victim` (durable mode): a new incarnation rejoins cold,
    /// recovering only what the log holds.
    Restart {
        victim: usize,
    },
    /// The home's failure detector (falsely or not) suspects remote `i+1`:
    /// park the home→remote link.
    Suspect(usize),
    /// The quorum poll refutes the home's suspicion of (live) remote `i+1`:
    /// re-admit and resume parked delivery.
    Refute(usize),
}

impl World {
    /// The request kinds the application slots issue.
    fn kinds(&self) -> &'static [Kind] {
        match (self.three_leg, self.second_op) {
            (true, _) => &KINDS[..2],
            (false, true) => &KINDS,
            (false, false) => &KINDS[..3],
        }
    }
}

impl Model for World {
    type Tr = Tr;
    type Ck = Ck;

    fn internal(&self) -> Vec<Tr> {
        let mut out = Vec::new();
        for i in 0..NREM {
            // A suspected remote's inbound link is parked at the home's
            // reliability agent — deliverable again only after the suspicion
            // resolves.
            let parked = self.home.is_some() && self.suspected[i];
            if self.rem[i].alive && !self.h2r[i].is_empty() && !parked {
                out.push(Tr::DeliverH2R(i));
            }
            if self.home.is_some() && !self.r2h[i].is_empty() {
                out.push(Tr::DeliverR2H(i));
            }
            if self.rem[1 - i].alive && !self.r2r[i].is_empty() {
                out.push(Tr::DeliverR2R(i));
            }
            if self.rem[i].alive && self.rem[i].after.is_some() {
                out.push(Tr::DrainRemote(i));
            }
            // A live suspect keeps heartbeating, so refutation is *guaranteed*
            // progress in the real system — which makes it an internal
            // transition here (a suspicion of a live peer can never be the end
            // state, so a parked world is not quiescent).
            if parked && self.rem[i].alive {
                out.push(Tr::Refute(i));
            }
        }
        if let Some(h) = &self.home {
            if h.draining {
                out.push(Tr::DrainHome);
            }
            if self.retry_at.is_some() {
                out.push(Tr::Retry);
            }
            // Disk completion is guaranteed progress: a pending persist always
            // resolves (crash-during-persist is the Kill branch's job).
            if self.pending_persist.is_some() {
                out.push(Tr::PersistDone);
            }
            // A compaction in flight always advances to its next phase
            // (crash-mid-compaction is, again, the Kill branch's job).
            if self.compacting.is_some() {
                out.push(Tr::CompactStep);
            }
        }
        out
    }

    fn external(&self) -> Vec<Tr> {
        let mut out = Vec::new();
        if let Some(h) = &self.home {
            if h.app == App::Idle && h.req_budget > 0 {
                for &kind in self.kinds() {
                    if !h.dentry.0.permits(kind, || h.dentry.1) {
                        out.push(Tr::AppHome(kind));
                    }
                }
            }
            match h.lock {
                Lock::Idle if h.lock_budget > 0 => {
                    for lk in LKINDS {
                        out.push(Tr::LockHomeAcq(lk));
                    }
                }
                Lock::Holding(_) => out.push(Tr::LockHomeRel),
                _ => {}
            }
        }
        for (i, r) in self.rem.iter().enumerate() {
            if !r.alive {
                continue;
            }
            if r.app == App::Idle && r.req_budget > 0 && !r.home_down {
                for &kind in self.kinds() {
                    if !r.state.permits(kind, || r.op_tag) {
                        out.push(Tr::AppRemote(i, kind));
                    }
                }
            }
            match r.lock {
                Lock::Idle if r.lock_budget > 0 && !r.home_down => {
                    for lk in LKINDS {
                        out.push(Tr::LockRemoteAcq(i, lk));
                    }
                    if self.intent_locks {
                        out.push(Tr::LockRemoteIntent(i));
                    }
                }
                Lock::Holding(_) => out.push(Tr::LockRemoteRel(i)),
                _ => {}
            }
            if r.evict_budget > 0
                && r.after.is_none()
                && matches!(
                    r.state,
                    LocalState::Shared | LocalState::Exclusive | LocalState::Operated
                )
            {
                out.push(Tr::Evict(i));
            }
        }
        // Suspect a live remote: the false-suspicion stimulus. (Suspecting a
        // node that is already dead is the Kill path — its marker is the
        // confirmation — so the stimulus targets live peers, where a unilateral
        // declaration would be unsound.)
        if self.home.is_some() && self.suspect_budget > 0 {
            for i in 0..NREM {
                if self.rem[i].alive && !self.suspected[i] {
                    out.push(Tr::Suspect(i));
                }
            }
        }
        if self.kill_budget > 0 {
            // Kill the home: branch over every surviving prefix of each
            // home→remote link (the product; each link truncates independently).
            // With a persist pending, also branch on whether its record reached
            // the log before the crash.
            if self.home.is_some() {
                for k0 in 0..=self.h2r[0].len() {
                    for k1 in 0..=self.h2r[1].len() {
                        out.push(Tr::Kill {
                            victim: HOME,
                            keep: [k0, k1],
                            flush_disk: false,
                        });
                        if self.pending_persist.is_some() {
                            out.push(Tr::Kill {
                                victim: HOME,
                                keep: [k0, k1],
                                flush_disk: true,
                            });
                        }
                    }
                }
            }
            // Kill remote node 1 (the protagonist remote; killing node 2 adds
            // symmetric states without new behavior since budgets differ).
            if self.rem[0].alive && self.home.is_some() {
                for k0 in 0..=self.r2h[0].len() {
                    out.push(Tr::Kill {
                        victim: 1,
                        keep: [k0, 0],
                        flush_disk: false,
                    });
                }
            }
            // Double kill: the quorum confirms TWO simultaneous deaths — the
            // membership axis a single-kill budget can never reach. Both
            // remotes die at once, each in-flight link keeping an independent
            // surviving prefix; the home consumes the two Down markers in
            // either order, burning one view epoch per death.
            if self.kill_budget >= 2
                && self.home.is_some()
                && self.rem[0].alive
                && self.rem[1].alive
            {
                for k0 in 0..=self.r2h[0].len() {
                    for k1 in 0..=self.r2h[1].len() {
                        out.push(Tr::KillBoth { keep: [k0, k1] });
                    }
                }
            }
        }
        // Start a compaction at any point the store could: the runtime polls
        // `maybe_checkpoint` after each persist and at every eviction-scan
        // batch point, so between any two protocol steps is fair game. An
        // empty store has nothing to snapshot (the real trigger counts
        // persists), and the store lock serializes sequences.
        if self.durable
            && self.compact_budget > 0
            && self.compacting.is_none()
            && self.home.is_some()
            && self.disk_seq > 0
        {
            out.push(Tr::StartCompaction);
        }
        if self.durable && self.restart_budget > 0 {
            // Restarts model `Cluster::restart_peer`, whose contract is a
            // *settled* death: every survivor has consumed the declaration and
            // has nothing in flight against the corpse (in the runtime this is
            // guaranteed by re-admitting between `run` phases — a still-parked
            // app thread would have kept the previous phase from joining).
            // Racing an unsettled death is out of contract: a survivor could
            // address the new incarnation before processing the stale death
            // declaration of the old one.
            let settled = |i: usize| {
                let r = &self.rem[i];
                !r.alive
                    || (r.home_down
                        && self.h2r[i].is_empty()
                        && self.r2h[i].is_empty()
                        && r.after.is_none()
                        && !r.state.in_flight()
                        && r.app == App::Idle
                        && matches!(r.lock, Lock::Idle | Lock::Holding(_)))
            };
            // Restart the home: only meaningful durable — a new incarnation
            // replays the log and re-announces itself to the survivors.
            if self.home.is_none() && (0..NREM).all(settled) {
                out.push(Tr::Restart { victim: HOME });
            }
            // Restart remote 1: the home un-fences the identity at a bumped
            // view epoch and serves its fresh (cold) requests again.
            if !self.rem[0].alive
                && self.home.as_ref().is_some_and(|h| h.knows_dead[0])
                && self.h2r[0].is_empty()
                && self.r2h[0].is_empty()
            {
                out.push(Tr::Restart { victim: 1 });
            }
        }
        out
    }

    /// Peeks at the message a delivery is about to consume.
    fn label(&self, tr: Tr) -> String {
        match tr {
            Tr::DeliverH2R(i) => format!(
                "deliver home->r{}: {:?}",
                i + 1,
                self.h2r[i].front().unwrap()
            ),
            Tr::DeliverR2H(i) => format!(
                "deliver r{}->home: {:?}",
                i + 1,
                self.r2h[i].front().unwrap()
            ),
            Tr::DeliverR2R(i) => format!(
                "deliver r{}->r{}: {:?}",
                i + 1,
                2 - i,
                self.r2r[i].front().unwrap()
            ),
            Tr::DrainRemote(i) => format!(
                "drain completes on r{}: {:?}",
                i + 1,
                self.rem[i].after.as_ref().unwrap()
            ),
            Tr::DrainHome => "home dentry drain completes".to_string(),
            Tr::Retry => format!("grace retry fires (at={:?})", self.retry_at.unwrap()),
            Tr::AppHome(k) => format!("home app requests {k:?}"),
            Tr::AppRemote(i, k) => format!("r{} app requests {k:?}", i + 1),
            Tr::LockHomeAcq(k) => format!("home acquires {k:?} lock"),
            Tr::LockHomeRel => "home releases its lock".to_string(),
            Tr::LockRemoteAcq(i, k) => format!("r{} acquires {k:?} lock", i + 1),
            Tr::LockRemoteIntent(i) => format!("r{} acquires a write-intent lock", i + 1),
            Tr::LockRemoteRel(i) => format!("r{} releases its lock", i + 1),
            Tr::Evict(i) => format!("eviction scan hits r{}", i + 1),
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => format!(
                "KILL node {victim} (kept prefixes {keep:?}, pending persist {})",
                if flush_disk { "flushed" } else { "lost" }
            ),
            Tr::KillBoth { keep } => {
                format!("KILL BOTH remotes (kept prefixes {keep:?}, two confirmed deaths)")
            }
            Tr::StartCompaction => format!("compaction starts (snapshot seq {})", self.disk_seq),
            Tr::CompactStep => format!(
                "compaction phase {} executes",
                self.compacting.unwrap().1.name()
            ),
            Tr::Suspect(i) => format!("home SUSPECTS r{} (link parked)", i + 1),
            Tr::Refute(i) => format!("suspicion of r{} refuted (link replayed)", i + 1),
            Tr::PersistDone => format!(
                "disk completes persist seq {}",
                self.pending_persist.unwrap()
            ),
            Tr::Restart { victim } => format!(
                "RESTART node {victim} (log replay, disk_seq={})",
                self.disk_seq
            ),
        }
    }

    fn apply(&mut self, s: &mut Search<Self>, tr: Tr) {
        match tr {
            Tr::DeliverH2R(i) => {
                let msg = self.h2r[i].pop_front().unwrap();
                deliver_to_remote(self, s, i, HOME, msg);
            }
            Tr::DeliverR2R(i) => {
                let msg = self.r2r[i].pop_front().unwrap();
                deliver_to_remote(self, s, 1 - i, i + 1, msg);
            }
            Tr::DeliverR2H(i) => {
                let msg = self.r2h[i].pop_front().unwrap();
                deliver_to_home(self, s, i, msg);
            }
            Tr::DrainRemote(i) => {
                let after = self.rem[i].after.take().unwrap();
                let home_down = self.rem[i].home_down;
                run_cache_event(self, s, i, CacheEvent::Drained { after, home_down });
                match self.rem[i].send_after_drain.take() {
                    Some((HOME, msg)) => send_r2h(self, s, i, msg),
                    Some((to, msg)) => send_r2r(self, i, to, Frame::Coherence(msg)),
                    None => {}
                }
            }
            Tr::DrainHome => {
                self.home.as_mut().unwrap().draining = false;
                run_home_event(self, s, HomeEvent::Drained);
            }
            Tr::Retry => {
                let at = self.retry_at.take().unwrap();
                self.now = self.now.max(at);
                s.ck.retry_transients
                    .insert(self.home.as_ref().unwrap().m.transient().name());
                run_home_event(self, s, HomeEvent::RetryExpired);
            }
            Tr::AppHome(kind) => {
                let h = self.home.as_mut().unwrap();
                h.app = App::Waiting(kind);
                h.req_budget -= 1;
                run_home_event(
                    self,
                    s,
                    HomeEvent::Request(Request {
                        source: Requester::Local(APP_TOKEN),
                        kind,
                    }),
                );
            }
            Tr::AppRemote(i, kind) => {
                let r = &mut self.rem[i];
                r.app = App::Waiting(kind);
                r.req_budget -= 1;
                let drain_pending = r.after.is_some();
                run_cache_event(
                    self,
                    s,
                    i,
                    CacheEvent::Request {
                        kind,
                        home_down: false,
                        drain_pending,
                    },
                );
            }
            Tr::LockHomeAcq(lk) => {
                let h = self.home.as_mut().unwrap();
                h.lock_budget -= 1;
                h.lock = Lock::Waiting(lk);
                let granted = h.locks.acquire(ELEM, lk, LockSource::Local(LOCK_TOKEN));
                if let Some(src) = granted {
                    deliver_lock_grants(self, s, vec![(src, lk)]);
                }
            }
            Tr::LockHomeRel => {
                let h = self.home.as_mut().unwrap();
                let Lock::Holding(lk) = h.lock else {
                    unreachable!()
                };
                h.lock = Lock::Idle;
                let granted = h.locks.release(ELEM, lk, None);
                deliver_lock_grants(self, s, granted);
            }
            Tr::LockRemoteAcq(i, lk) => lock_remote_acquire(self, i, lk, false),
            Tr::LockRemoteIntent(i) => lock_remote_acquire(self, i, LockKind::Write, true),
            Tr::LockRemoteRel(i) => {
                let r = &mut self.rem[i];
                let Lock::Holding(lk) = r.lock else {
                    unreachable!()
                };
                r.lock = Lock::Idle;
                let intent = std::mem::take(&mut r.intent);
                let keep = std::mem::take(&mut r.keep);
                if self.home.is_some() {
                    self.r2h[i].push_back(Frame::LockRel { kind: lk });
                }
                // Home already dead: the release would be sent to a corpse; the
                // home's lock table died with it, so dropping is sound.
                //
                // An intent release then writes an unused Exclusive copy
                // back: a downgrade if its grant said to keep a Shared copy,
                // the ordinary eviction otherwise.
                let r = &self.rem[i];
                if r.granted {
                    s.ck.unlocks_before_last_ack += 1;
                }
                if intent && r.state == LocalState::Exclusive && r.after.is_none() {
                    let ev = if keep {
                        s.ck.keeps += 1;
                        CacheEvent::Downgrade
                    } else {
                        s.ck.hand_backs += 1;
                        CacheEvent::Evict
                    };
                    run_cache_event(self, s, i, ev);
                }
            }
            Tr::Evict(i) => {
                self.rem[i].evict_budget -= 1;
                run_cache_event(self, s, i, CacheEvent::Evict);
            }
            Tr::Suspect(i) => {
                self.suspect_budget -= 1;
                self.suspected[i] = true;
            }
            Tr::Refute(i) => {
                s.ck.suspect_refutes += 1;
                self.suspected[i] = false;
            }
            Tr::PersistDone => {
                let seq = self.pending_persist.take().unwrap();
                self.disk_seq = self.disk_seq.max(seq);
                // The machine will acknowledge its awaited sequence (the fed
                // seq covers it — persists are cumulative); record the ack for
                // the persist-before-ack theorem *before* the protocol resumes.
                if let darray::protocol::Transient::AwaitPersist { seq: s } =
                    self.home.as_ref().unwrap().m.transient()
                {
                    if seq >= *s {
                        self.acked_seq = self.acked_seq.max(*s);
                    }
                }
                run_home_event(self, s, HomeEvent::PersistDone { seq });
            }
            Tr::StartCompaction => {
                self.compact_budget -= 1;
                s.ck.compactions_started += 1;
                // Phase zero of `checkpoint`: flush + sync the log. The model's
                // `disk_seq` is already the synced log (persists land there via
                // PersistDone / flush_disk), so the snapshot is just its
                // current value.
                self.compacting = Some((self.disk_seq, CkPhase::WriteTmp));
            }
            Tr::CompactStep => {
                let (snap, phase) = self.compacting.unwrap();
                match phase {
                    CkPhase::WriteTmp => {
                        // `.ckpt.tmp` written + fsynced: no durable-state
                        // change visible to recovery (reopen deletes tmps).
                        self.compacting = Some((snap, CkPhase::Rotate));
                    }
                    CkPhase::Rotate => {
                        // `.ckpt` → `.ckpt.prev` (skipped when no newest
                        // generation exists, exactly like the store).
                        if let Some(c) = self.ckpt.take() {
                            self.ckpt_prev = Some(c);
                        }
                        self.compacting = Some((snap, CkPhase::Rename));
                    }
                    CkPhase::Rename => {
                        // `.ckpt.tmp` → `.ckpt`, atomic: the new generation —
                        // covering every persist up to the snapshot — lands.
                        self.ckpt = Some(snap);
                        self.compacting = Some((snap, CkPhase::Truncate));
                    }
                    CkPhase::Truncate => {
                        // Lag-by-one: drop only the log prefix covered by the
                        // generation just rotated to `.prev`, so a torn newest
                        // checkpoint plus the truncated log still recovers
                        // every record. (Truncating up to `snap` here instead
                        // is the classic lost-window bug — the checker's
                        // Rotate-phase kill would catch it via `recoverable`.)
                        self.trunc_floor = self.trunc_floor.max(self.ckpt_prev.unwrap_or(0));
                        self.compacting = None;
                        s.ck.compactions_completed += 1;
                    }
                }
            }
            Tr::Restart { victim } => {
                self.restart_budget -= 1;
                if victim == HOME {
                    s.ck.home_restarts += 1;
                    if self.ckpt.or(self.ckpt_prev).is_some() {
                        s.ck.restarts_from_checkpoint += 1;
                    }
                    // Reopen recovers checkpoint-then-log-suffix: the new
                    // incarnation's replay frontier is exactly what the disk
                    // yields. In a sound store this equals `disk_seq`; if
                    // compaction ever truncated a window no checkpoint covers,
                    // this drops below `acked_seq` and safety fails on the
                    // next state.
                    self.disk_seq = recoverable(self);
                    // A new incarnation: fresh machine, cold directory, persist
                    // sequence resumed from the replayed log (exactly what
                    // `LogChunkStore::open` + the allocation overlay do).
                    let mut m = HomeMachine::new();
                    m.set_durable(true);
                    m.resume_persist_seq(self.disk_seq);
                    self.home = Some(Home {
                        m,
                        locks: LockTable::default(),
                        dentry: (LocalState::Exclusive, NOTAG),
                        draining: false,
                        knows_dead: [false; NREM],
                        app: App::Idle,
                        lock: Lock::Idle,
                        req_budget: 0,
                        lock_budget: 0,
                        image: 0,
                        grant: None,
                    });
                    // Announce the new incarnation to every survivor, FIFO
                    // *after* the old incarnation's Down marker: a remote always
                    // learns of the death before the rebirth.
                    for (i, r) in self.rem.iter().enumerate() {
                        if r.alive {
                            self.h2r[i].push_back(Frame::Restarted);
                        }
                    }
                } else {
                    let i = victim - 1;
                    s.ck.remote_restarts += 1;
                    // The restarted remote rejoins cold with a small budget to
                    // prove the un-fenced home serves it again.
                    self.rem[i] = Remote::fresh(1, 0, 0);
                    self.h2r[i].clear();
                    self.r2h[i].clear();
                    let h = self.home.as_mut().unwrap();
                    h.knows_dead[i] = false;
                    // The restart admission burns a fresh membership epoch on
                    // top of whatever deaths the view has already applied
                    // (`MembershipView::restart`).
                    let view_epoch = h.m.view_epoch() + 1;
                    run_home_event(
                        self,
                        s,
                        HomeEvent::PeerRestarted {
                            node: victim,
                            view_epoch,
                        },
                    );
                }
            }
            Tr::Kill {
                victim,
                keep,
                flush_disk,
            } => {
                self.kill_budget -= 1;
                if victim == HOME {
                    // A pending persist dies with the executor; `flush_disk`
                    // decides whether its record made the log first.
                    if let Some(seq) = self.pending_persist.take() {
                        s.ck.killed_mid_persist += 1;
                        if flush_disk {
                            self.disk_seq = self.disk_seq.max(seq);
                        }
                    }
                    // A compaction in flight dies mid-sequence: the phases
                    // already executed are durably on disk, the rest never
                    // happen — this is the snapshot→rename→truncate crash
                    // matrix. (Reopen cleans the stale tmp, not modeled.)
                    if let Some((_, phase)) = self.compacting.take() {
                        s.ck.killed_mid_compaction.insert(phase.name());
                    }
                    self.home = None;
                    self.retry_at = None;
                    // The suspector died with its suspicions.
                    self.suspected = [false; NREM];
                    for (i, &kept) in keep.iter().enumerate() {
                        // Messages to the corpse are never consumed.
                        self.r2h[i].clear();
                        // The victim's in-flight sends: an arbitrary prefix
                        // survives, then the detector marker (always last).
                        self.h2r[i].truncate(kept);
                        if self.rem[i].alive {
                            self.h2r[i].push_back(Frame::Down { dead: HOME });
                        } else {
                            self.h2r[i].clear();
                        }
                    }
                } else {
                    let i = victim - 1;
                    self.rem[i] = Remote::dead();
                    self.h2r[i].clear();
                    self.r2r[i].clear();
                    self.r2h[i].truncate(keep[0]);
                    if self.home.is_some() {
                        self.r2h[i].push_back(Frame::Down { dead: victim });
                    } else {
                        self.r2h[i].clear();
                    }
                }
            }
            Tr::KillBoth { keep } => {
                self.kill_budget -= 2;
                s.ck.double_kills += 1;
                for (i, &kept) in keep.iter().enumerate() {
                    self.rem[i] = Remote::dead();
                    self.h2r[i].clear();
                    self.r2r[i].clear();
                    self.r2h[i].truncate(kept);
                    // Generation guards on a live home; each victim's marker
                    // rides its own FIFO, so the home learns of the two deaths
                    // in either delivery order.
                    self.r2h[i].push_back(Frame::Down { dead: i + 1 });
                }
            }
        }
    }

    fn check_safety(&self, s: &mut Search<Self>) {
        // THE durability theorem (DESIGN.md §14), as a world invariant: no
        // write is ever acknowledged before its image is durably in the log.
        // Kills erase the volatile machine but never `disk_seq`, and restarts
        // recover exactly `disk_seq` — so this single check is "every write
        // acked before the kill is recovered, and only those".
        if self.acked_seq > self.disk_seq {
            s.fail(
                self,
                &format!(
                    "persist-before-ack violated: acked seq {} but disk only has {}",
                    self.acked_seq, self.disk_seq
                ),
            );
        }
        // Compaction lag-by-one theorem: the truncated log prefix must be
        // covered by the FALLBACK checkpoint generation, not merely the newest
        // one — so a torn `.ckpt` at any instant still recovers every dropped
        // record from `.prev` + the remaining log.
        if self.trunc_floor > self.ckpt_prev.unwrap_or(0) {
            s.fail(
                self,
                &format!(
                    "compaction truncated the log past the fallback checkpoint \
                     (trunc_floor {} > prev generation {:?})",
                    self.trunc_floor, self.ckpt_prev
                ),
            );
        }
        // And the full recovery theorem in every state, every phase: what a
        // reopen would reconstruct from the disk as it is RIGHT NOW — newest
        // readable checkpoint + log suffix — covers every acknowledged write.
        if self.acked_seq > recoverable(self) {
            s.fail(
                self,
                &format!(
                    "acked seq {} not recoverable from ckpt {:?}/prev {:?} + log ({}, {}]",
                    self.acked_seq, self.ckpt, self.ckpt_prev, self.trunc_floor, self.disk_seq
                ),
            );
        }
        if let Some(h) = &self.home {
            // The executor's pending persist and the machine's AwaitPersist
            // transient must agree exactly.
            use darray::protocol::Transient;
            let awaited = match h.m.transient() {
                Transient::AwaitPersist { seq } => Some(*seq),
                _ => None,
            };
            if awaited != self.pending_persist {
                s.fail(
                    self,
                    &format!(
                        "machine awaits persist {awaited:?} but executor has {:?} pending",
                        self.pending_persist
                    ),
                );
            }
            // Epoch monotonicity across restarts: a new record must never be
            // stamped below the log's replay frontier, or a later replay would
            // resurrect a pre-restart image.
            if h.m.persist_seq() < self.disk_seq {
                s.fail(self, "persist sequence regressed below the durable log");
            }
        }
        // The quorum guarantee, stated as a world invariant: no live peer is
        // ever declared dead. Everything destructive (lock reclaim, Dirty
        // ownership reclaim, sharer pruning) happens only behind `knows_dead`,
        // so this single check covers "no reachable interleaving discards a
        // live peer's writes".
        if let Some(h) = &self.home {
            for i in 0..NREM {
                if h.knows_dead[i] && self.rem[i].alive {
                    s.fail(self, "home declared a LIVE remote dead");
                }
                if self.suspected[i]
                    && self.rem[i].alive
                    && self.rem[i].state == LocalState::Exclusive
                {
                    // Coverage: the dangerous state — a live suspect holding
                    // unwritten Dirty data — was actually reached.
                    s.ck.suspected_dirty_states += 1;
                }
            }
            if h.knows_dead.iter().all(|&d| d) {
                // Coverage: the home survived a confirmed double death and its
                // directory/lock sweeps ran for both victims.
                s.ck.both_dead_states += 1;
            }
        }
        // A *zombie* remote consumed the home's `Down` marker (or is about to:
        // FIFO has the marker ahead of the `Restarted` announcement) and has
        // not yet learned of the rebirth. Its rights come from the dead
        // incarnation — the restarted directory neither knows nor honors them,
        // and consuming `Restarted` voids them. Pre-existing semantics: cached
        // copies of a dead home's chunks stay locally usable (graceful
        // degradation) but their post-death writes were never promised
        // durability. Zombies are therefore excluded from directory-agreement
        // checks; they cannot reach quiescence (the pending `Restarted`
        // delivery keeps the world live).
        let zombie = |i: usize| {
            self.rem[i].home_down || self.h2r[i].iter().any(|f| matches!(f, Frame::Restarted))
        };
        // Single writer: at most one alive remote holds Exclusive, and nobody
        // else holds any rights while it does.
        let excl: Vec<usize> = (0..NREM)
            .filter(|&i| {
                self.rem[i].alive && !zombie(i) && self.rem[i].state == LocalState::Exclusive
            })
            .collect();
        if excl.len() > 1 {
            s.fail(self, "two alive remotes hold Exclusive");
        }
        if let Some(&e) = excl.first() {
            for (i, r) in self.rem.iter().enumerate() {
                if i != e
                    && r.alive
                    && !zombie(i)
                    && matches!(
                        r.state,
                        LocalState::Shared
                            | LocalState::Exclusive
                            | LocalState::Operated
                            | LocalState::OperatedIdle
                    )
                {
                    s.fail(
                        self,
                        &format!("r{} holds rights while r{} is Exclusive", i + 1, e + 1),
                    );
                }
            }
            if let Some(h) = &self.home {
                // A node whose three-leg fill is in flight holds the chunk
                // already; the directory names it once its ack arrives.
                let direct = matches!(h.m.transient(),
                    darray::protocol::Transient::AwaitDirectFill { requester, .. }
                        if *requester == e + 1);
                if !direct && !matches!(h.m.state(), DirState::Dirty { owner } if *owner == e + 1) {
                    s.fail(
                        self,
                        &format!("r{} is Exclusive but directory is {:?}", e + 1, h.m.state()),
                    );
                }
            }
        }
        // Data values: every readable copy holds the last value written.
        if self.three_leg {
            for (i, r) in self.rem.iter().enumerate() {
                let readable = matches!(r.state, LocalState::Shared | LocalState::Exclusive);
                if r.alive && readable && r.val != self.latest {
                    s.fail(
                        self,
                        &format!(
                            "r{} {:?} reads {} but {} was written last",
                            i + 1,
                            r.state,
                            r.val,
                            self.latest
                        ),
                    );
                }
            }
            if let Some(h) = &self.home {
                if h.dentry.0.permits(Kind::Read, || h.dentry.1) && h.image != self.latest {
                    s.fail(
                        self,
                        &format!(
                            "the home {:?} reads {} but {} was written last",
                            h.dentry.0, h.image, self.latest
                        ),
                    );
                }
            }
        }
        // Concurrent operators agree: every alive Operated remote, with a
        // line or idle, and the home dentry carry one operator.
        let mut tags: Vec<u32> = (0..NREM)
            .filter(|&i| {
                self.rem[i].alive
                    && !zombie(i)
                    && matches!(
                        self.rem[i].state,
                        LocalState::Operated | LocalState::OperatedIdle
                    )
            })
            .map(|i| self.rem[i].op_tag)
            .collect();
        let home = self.home.iter().map(|h| h.dentry);
        tags.extend(home.filter(|d| d.0 == LocalState::Operated).map(|d| d.1));
        if tags.windows(2).any(|t| t[0] != t[1]) {
            s.fail(self, &format!("operators {tags:?} hold the chunk at once"));
        }
        // Dentry/line consistency (drains excepted: the line detaches at the
        // continuation, not at drain start): only Invalid and idle chunks
        // have no line.
        for (i, r) in self.rem.iter().enumerate() {
            let lineless = matches!(r.state, LocalState::Invalid | LocalState::OperatedIdle);
            if r.alive && r.after.is_none() && lineless != (r.line == LINE_NONE) {
                s.fail(
                    self,
                    &format!("r{} dentry/line mismatch: {:?}/{}", i + 1, r.state, r.line),
                );
            }
        }
        // Lock exclusion: a held writer lock excludes every other holder.
        // (A remote that learned of the home's death dropped its slot.)
        let holders: Vec<LockKind> = self
            .home
            .iter()
            .map(|h| h.lock)
            .chain(self.rem.iter().filter(|r| r.alive).map(|r| r.lock))
            .filter_map(|l| match l {
                Lock::Holding(k) => Some(k),
                _ => None,
            })
            .collect();
        if holders.contains(&LockKind::Write) && holders.len() > 1 {
            s.fail(
                self,
                &format!("a writer lock is held alongside others: {holders:?}"),
            );
        }
        let Some(h) = &self.home else { return };
        // The directory lists each holder once, and never the home.
        let listed = match h.m.state() {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => &sharers[..],
            DirState::Dirty { owner } => std::slice::from_ref(owner),
            DirState::Unshared => &[],
        };
        if listed.contains(&HOME) || (1..listed.len()).any(|i| listed[..i].contains(&listed[i])) {
            s.fail(
                self,
                &format!("directory {:?} lists the home or a node twice", h.m.state()),
            );
        }
        // A stable directory has served everything queued, and the home
        // dentry holds the rights the state leaves it.
        if h.m.transient().is_none() {
            if h.m.pending_len() != 0 || h.m.has_current() {
                s.fail(self, "stable directory with requests still queued");
            }
            let want = (
                h.m.state().home_local(),
                match h.m.state() {
                    DirState::Operated { op, .. } => op.0,
                    _ => NOTAG,
                },
            );
            if h.dentry != want {
                s.fail(
                    self,
                    &format!(
                        "home dentry {:?} disagrees with directory (want {want:?})",
                        h.dentry
                    ),
                );
            }
        }
        // The machine's dead set and the executor's detector agree.
        for n in 1..=NREM {
            if h.m.is_dead(n) != h.knows_dead[n - 1] {
                s.fail(self, "machine dead set out of sync with detector");
            }
        }
        // No directory bookkeeping references a known-dead node.
        let dead_ref = |n: &usize| h.knows_dead[*n - 1];
        let state_refs_dead = match h.m.state() {
            DirState::Shared { sharers } | DirState::Operated { sharers, .. } => {
                sharers.iter().any(&dead_ref)
            }
            DirState::Dirty { owner } => dead_ref(owner),
            DirState::Unshared => false,
        };
        if state_refs_dead {
            s.fail(self, "directory state references a known-dead node");
        }
        use darray::protocol::Transient;
        let transient_refs_dead = match h.m.transient() {
            Transient::AwaitInvAcks { waiting } | Transient::AwaitFlushes { waiting, .. } => {
                waiting.iter().any(&dead_ref)
            }
            Transient::AwaitWriteback { from } => dead_ref(from),
            _ => false,
        };
        if transient_refs_dead {
            s.fail(self, "transient wait set references a known-dead node");
        }
        // No orphaned lock holders.
        if !h.locks.holders_all_satisfy(|n| !h.knows_dead[n - 1]) {
            s.fail(self, "lock table holds a lock for a known-dead node");
        }
    }

    fn check_quiescence(&self, s: &mut Search<Self>) {
        let live_holder = matches!(self.home.as_ref().map(|h| h.lock), Some(Lock::Holding(_)))
            || self
                .rem
                .iter()
                .any(|r| r.alive && matches!(r.lock, Lock::Holding(_)));

        if let Some(h) = &self.home {
            if !h.m.transient().is_none() {
                s.fail(
                    self,
                    &format!(
                        "quiescent with transient {} pending",
                        h.m.transient().name()
                    ),
                );
            }
            if matches!(h.app, App::Waiting(_)) {
                s.fail(self, "home app thread parked forever");
            }
            if matches!(h.lock, Lock::Waiting(_)) && !live_holder {
                s.fail(self, "home lock waiter blocked with no live holder");
            }
            // Directory ↔ survivor dentries, both directions.
            for (i, r) in self.rem.iter().enumerate() {
                let n = i + 1;
                let (in_sharers, as_owner, op_of) = match h.m.state() {
                    DirState::Shared { sharers } => (sharers.contains(&n), false, None),
                    DirState::Dirty { owner } => (false, *owner == n, None),
                    DirState::Operated { op, sharers } => (sharers.contains(&n), false, Some(op.0)),
                    DirState::Unshared => (false, false, None),
                };
                if !r.alive {
                    continue;
                }
                match r.state {
                    LocalState::Shared => {
                        if !(in_sharers && op_of.is_none()) {
                            s.fail(
                                self,
                                &format!("r{n} is Shared but directory is {:?}", h.m.state()),
                            );
                        }
                    }
                    LocalState::Exclusive => {
                        if !as_owner {
                            s.fail(
                                self,
                                &format!("r{n} is Exclusive but directory is {:?}", h.m.state()),
                            );
                        }
                    }
                    LocalState::Operated | LocalState::OperatedIdle => {
                        if op_of != Some(r.op_tag) || !in_sharers {
                            s.fail(
                                self,
                                &format!(
                                    "r{n} {}({}) but directory is {:?}",
                                    r.state.name(),
                                    r.op_tag,
                                    h.m.state()
                                ),
                            );
                        }
                    }
                    LocalState::Invalid => {
                        if in_sharers || as_owner {
                            s.fail(
                                self,
                                &format!("directory lists Invalid r{n}: {:?}", h.m.state()),
                            );
                        }
                    }
                    st => s.fail(
                        self,
                        &format!("r{n} stuck in transient state {st:?} at quiescence"),
                    ),
                }
            }
        }
        for (i, r) in self.rem.iter().enumerate() {
            if !r.alive {
                continue;
            }
            if matches!(r.app, App::Waiting(_)) {
                s.fail(self, &format!("r{} app thread parked forever", i + 1));
            }
            if matches!(r.lock, Lock::Waiting(_)) && (self.home.is_none() || !live_holder) {
                s.fail(
                    self,
                    &format!("r{} lock waiter blocked with no live grantor", i + 1),
                );
            }
            if self.home.is_none() && (r.state.in_flight() || r.after.is_some()) {
                s.fail(
                    self,
                    &format!("r{} stuck in-flight after home death", i + 1),
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Execution: the steps `apply` is made of
// ---------------------------------------------------------------------------

/// Deliver one frame from node `from` (the home, or the other remote) to
/// remote `i` (node id `i+1`).
fn deliver_to_remote(w: &mut World, s: &mut Search<World>, i: usize, from: usize, frame: Frame) {
    match frame {
        // A fill's WRITE lands in the line it was sent for.
        Frame::Data { msg, val } => {
            let r = &mut w.rem[i];
            if matches!(
                r.state,
                LocalState::FillingShared | LocalState::FillingExclusive
            ) {
                r.val = val;
            }
            deliver_to_remote(w, s, i, from, Frame::Coherence(msg));
        }
        Frame::Coherence(msg) => match msg.deliver::<u32>(from, false) {
            Delivery::Cache(ev) => {
                let r = &w.rem[i];
                let granting = w.home.as_ref().is_some_and(|h| h.grant.is_some())
                    || w.h2r[i]
                        .iter()
                        .any(|f| matches!(f, Frame::LockGrant { acks: Some(_), .. }));
                match ev {
                    CacheEvent::InvAck if granting => s.ck.acks_before_grant += 1,
                    CacheEvent::InvAck if r.acks <= 0 => s.ck.acks_before_fill += 1,
                    CacheEvent::DirectedInvalidate { .. } if r.after.is_some() => {
                        s.ck.directed_mid_drain += 1;
                    }
                    CacheEvent::DirectedInvalidate { .. } if r.state == LocalState::Invalid => {
                        s.ck.directed_crossed += 1;
                    }
                    CacheEvent::DirectedInvalidate { .. } if r.state.in_flight() => {
                        s.ck.directed_filling += 1;
                    }
                    _ => {}
                }
                run_cache_event(w, s, i, ev)
            }
            Delivery::Home(ev) => s.fail(
                w,
                &format!("home-side event {ev:?} delivered to r{}", i + 1),
            ),
        },
        Frame::LockGrant {
            kind,
            intent,
            keep,
            acks,
            data,
        } => {
            let r = &mut w.rem[i];
            if r.lock != Lock::Waiting(kind) || r.intent != intent || keep && !intent {
                s.fail(
                    w,
                    &format!("r{} got a {kind:?} lock grant it never asked for", i + 1),
                );
            }
            r.lock = Lock::Holding(kind);
            r.keep = keep;
            // The grantee's half of an intent grant: the acks toward the
            // write the home served at a directed grant, or else the
            // runtime's write miss for the lock's chunk, unless its rights
            // already allow the write.
            match acks {
                Some(acks) => {
                    // A data grant's value lands in a fresh line only on a
                    // node that holds and awaits nothing.
                    if let Some(val) = data {
                        if r.state == LocalState::Invalid && r.after.is_none() {
                            r.val = val;
                        } else {
                            s.ck.grants_declined += 1;
                        }
                    }
                    let data = data.is_some();
                    run_cache_event(w, s, i, CacheEvent::DirectedGrant { acks, data });
                }
                None if intent => write_miss_remote(w, s, i),
                None => {}
            }
        }
        Frame::Down { dead } => {
            assert_eq!(dead, HOME, "only the home's death reaches a remote");
            if w.home.is_some() {
                // Restart gating requires every marker consumed first, so a
                // marker outliving the rebirth means the model is broken.
                s.fail(w, "Down marker consumed after the home restarted");
            }
            s.ck.homedown_states.insert(w.rem[i].state.name());
            let r = &mut w.rem[i];
            r.home_down = true;
            // Lock slots waiting on (or holding locks managed by) the dead
            // home are meaningless now: the table died with the home.
            r.lock = Lock::Idle;
            r.intent = false;
            r.keep = false;
            run_cache_event(w, s, i, CacheEvent::HomeDown);
            // An application wait with no fill in flight will never be woken
            // by the protocol again — the runtime wakes it on the detector
            // edge so it re-checks and observes NodeUnavailable.
            if w.rem[i].app != App::Idle && !w.rem[i].state.in_flight() && w.rem[i].after.is_none()
            {
                w.rem[i].app = App::Idle;
            }
        }
        Frame::Restarted => {
            // FIFO put the old incarnation's Down marker first, so the
            // remote has already torn down its in-flight state; what's left
            // is to void rights granted by the dead incarnation and resume
            // talking to the new one.
            w.rem[i].home_down = false;
            run_cache_event(w, s, i, CacheEvent::HomeRestarted);
        }
        other => s.fail(
            w,
            &format!("home-bound frame {other:?} delivered to r{}", i + 1),
        ),
    }
}

/// Deliver one frame from remote `i` (node id `i+1`) to the home.
fn deliver_to_home(w: &mut World, s: &mut Search<World>, i: usize, frame: Frame) {
    let from = i + 1;
    if w.home.as_ref().unwrap().knows_dead[i] && !matches!(frame, Frame::Down { .. }) {
        // FIFO + marker-last makes this unreachable; if it fires the kill
        // model itself is broken.
        s.fail(
            w,
            &format!("home consumed {frame:?} from r{from} after its Down marker"),
        );
    }
    match frame {
        // A writeback's WRITE lands in the home image, whatever the notice
        // then does.
        Frame::Data { msg, val } => {
            w.home.as_mut().unwrap().image = val;
            deliver_to_home(w, s, i, Frame::Coherence(msg));
        }
        Frame::Coherence(msg) => match msg.deliver(from, true) {
            Delivery::Home(ev) => {
                let m = &w.home.as_ref().unwrap().m;
                if matches!(ev, HomeEvent::EvictNotice { .. })
                    && *m.state() == (DirState::Dirty { owner: from })
                {
                    s.ck.evictions_crossing_grant += 1;
                }
                if matches!(ev, HomeEvent::FillAck { holds: false, .. }) {
                    s.ck.grants_empty += 1;
                }
                if let darray::protocol::Transient::AwaitDirectFill { owner, .. } =
                    w.home.as_ref().unwrap().m.transient()
                {
                    match ev {
                        HomeEvent::Writeback {
                            downgrade,
                            direct: false,
                            ..
                        } if *owner == Some(from) => {
                            if downgrade {
                                s.ck.crossing_downgrades += 1;
                            } else {
                                s.ck.crossing_writebacks += 1;
                            }
                        }
                        HomeEvent::Request(_) if owner.is_none() => {
                            s.ck.queued_behind_directed += 1;
                        }
                        HomeEvent::Request(_) => s.ck.queued_behind_direct += 1,
                        _ => {}
                    }
                }
                run_home_event(w, s, ev)
            }
            Delivery::Cache(ev) => s.fail(w, &format!("cache-side event {ev:?} sent to the home")),
        },
        Frame::LockAcq { kind, intent } => {
            let h = w.home.as_mut().unwrap();
            let granted = h
                .locks
                .acquire(ELEM, kind, LockSource::Remote { node: from, intent });
            if let Some(src) = granted {
                deliver_lock_grants(w, s, vec![(src, kind)]);
            }
        }
        Frame::LockRel { kind } => {
            let h = w.home.as_mut().unwrap();
            let granted = h.locks.release(ELEM, kind, Some(from));
            deliver_lock_grants(w, s, granted);
        }
        Frame::Down { dead } => {
            assert_eq!(dead, from);
            if w.rem[i].alive {
                s.fail(
                    w,
                    &format!("quorum confirmed the death of LIVE node {dead}"),
                );
            }
            if w.suspected[i] {
                // The home's own suspicion was resolved by the suspect's
                // actual death rather than a refutation.
                s.ck.suspect_confirms += 1;
                w.suspected[i] = false;
            }
            let h = w.home.as_mut().unwrap();
            s.ck.pd_transients.insert(h.m.transient().name());
            s.ck.pd_states.insert(h.m.state().name());
            h.knows_dead[i] = true;
            // Each confirmed death burns one membership epoch, in marker
            // consumption order (a double kill burns 1 then 2).
            let view_epoch = h.m.view_epoch() + 1;
            run_home_event(w, s, HomeEvent::PeerDown { dead, view_epoch });
            let h = w.home.as_mut().unwrap();
            let purge = h.locks.forget_peer(dead);
            s.ck.locks_reclaimed += purge.reclaimed;
            deliver_lock_grants(
                w,
                s,
                purge.granted.into_iter().map(|(_, s, k)| (s, k)).collect(),
            );
        }
        other => s.fail(w, &format!("remote-bound frame {other:?} sent to the home")),
    }
}

/// Deliver lock grants returned by the table, mirroring the runtime's
/// cascade: a grant to a node already known dead is immediately released
/// back (the table re-pumps to the next waiter).
fn deliver_lock_grants(
    w: &mut World,
    s: &mut Search<World>,
    granted: Vec<(LockSource<u32>, LockKind)>,
) {
    let mut queue: VecDeque<(LockSource<u32>, LockKind)> = granted.into();
    while let Some((src, lk)) = queue.pop_front() {
        match src {
            LockSource::Local(tok) => {
                assert_eq!(tok, LOCK_TOKEN, "unknown local lock token");
                let h = w.home.as_mut().unwrap();
                if h.lock != Lock::Waiting(lk) {
                    s.fail(w, "home lock slot granted while not waiting");
                }
                h.lock = Lock::Holding(lk);
            }
            LockSource::Remote { node: n, intent } => {
                let h = w.home.as_mut().unwrap();
                if h.knows_dead[n - 1] {
                    // Runtime cascade: deliver_grant sees the grantee is
                    // dead and releases straight back, pulling nothing.
                    let more = h.locks.release(ELEM, lk, Some(n));
                    s.ck.locks_reclaimed += 1;
                    queue.extend(more);
                    continue;
                }
                // The release rule, decided before the pull changes the
                // directory, as the runtime's `keeps` does. The model's
                // chunk holds the one element.
                let keep = intent && h.locks.intent_keeps(ELEM, ELEM..ELEM + 1, h.m.state(), n);
                // A directed grant leaves once the home dentry drained.
                if intent && h.m.directs_grant(w.now, w.grace, n) {
                    s.ck.intent_grants += 1;
                    if matches!(h.m.state(), DirState::Shared { sharers } if sharers.contains(&n)) {
                        s.ck.grants_to_sharers += 1;
                    } else {
                        s.ck.grants_to_non_sharers += 1;
                    }
                    h.grant = Some((lk, keep));
                    run_home_event(w, s, HomeEvent::IntentGrant { grantee: n });
                    continue;
                }
                if intent && w.three_leg && !h.m.state().held_alone_by(n) {
                    s.ck.grants_pulled += 1;
                }
                if w.rem[n - 1].alive {
                    w.h2r[n - 1].push_back(Frame::LockGrant {
                        kind: lk,
                        intent,
                        keep,
                        acks: None,
                        data: None,
                    });
                }
                // else: grantee died but the marker is still in flight; the
                // grant message is lost with the node, and the marker's
                // forget_peer sweep will reclaim the table slot.
                if intent {
                    s.ck.intent_grants += 1;
                    pull_for(w, s, n);
                }
            }
        }
    }
}

/// Remote `i` asks the home for a lock; `intent` marks a write-intent
/// writer lock.
fn lock_remote_acquire(w: &mut World, i: usize, kind: LockKind, intent: bool) {
    let r = &mut w.rem[i];
    r.lock_budget -= 1;
    r.lock = Lock::Waiting(kind);
    r.intent = intent;
    w.r2h[i].push_back(Frame::LockAcq { kind, intent });
}

/// The home's half of an intent grant to node `grantee`, as the runtime's
/// `pull_for` runs it: unless the grantee holds the chunk alone, the home
/// node's own write miss (skipped, like any home-local miss, when the home
/// dentry already allows the write).
fn pull_for(w: &mut World, s: &mut Search<World>, grantee: usize) {
    let h = w.home.as_ref().unwrap();
    let home_has_it = !h.draining && h.dentry.0.permits(Kind::Write, || h.dentry.1);
    if h.m.state().held_alone_by(grantee) || home_has_it {
        return;
    }
    s.ck.intent_pulls += 1;
    run_home_event(
        w,
        s,
        HomeEvent::Request(Request {
            source: Requester::Local(PULL_TOKEN),
            kind: Kind::Write,
        }),
    );
}

/// The grantee's half of an intent grant on remote `i`: the runtime's write
/// miss for the lock's chunk, issued unless the dentry already allows the
/// write. Nothing waits on it; the application slot re-checks on its wake.
fn write_miss_remote(w: &mut World, s: &mut Search<World>, i: usize) {
    let r = &w.rem[i];
    let drain_pending = r.after.is_some();
    if !drain_pending && r.state.permits(Kind::Write, || r.op_tag) {
        return;
    }
    let home_down = r.home_down;
    run_cache_event(
        w,
        s,
        i,
        CacheEvent::Request {
            kind: Kind::Write,
            home_down,
            drain_pending,
        },
    );
}

/// Feed one event to the home machine and execute its actions.
fn run_home_event(w: &mut World, s: &mut Search<World>, ev: HomeEvent<u32>) {
    let (now, grace) = (w.now, w.grace);
    let m = &mut w.home.as_mut().unwrap().m;
    let actions = s.ck.cells.run(m, now, grace, ev);
    if matches!(
        m.transient(),
        darray::protocol::Transient::AwaitDirectFill { owner: Some(_), .. }
    ) {
        s.ck.reads_during_direct += actions
            .iter()
            .filter(|a| matches!(a, HomeAction::SendFill { .. } | HomeAction::Wake(APP_TOKEN)))
            .count();
    }
    for a in actions {
        match a {
            HomeAction::ChargeDirUpdate => {}
            HomeAction::Wake(PULL_TOKEN) => {}
            HomeAction::Wake(tok) => {
                assert_eq!(tok, APP_TOKEN, "unknown home wake token");
                let h = w.home.as_mut().unwrap();
                if !matches!(h.app, App::Waiting(_)) {
                    s.fail(w, "home app woken while not waiting");
                }
                if w.three_leg && h.app == App::Waiting(Kind::Write) {
                    w.latest += 1;
                    h.image = w.latest;
                }
                h.app = App::Idle;
            }
            HomeAction::SendFill {
                to,
                exclusive,
                acks,
                ..
            } => {
                let fill = Msg::home_fill(exclusive, acks);
                let h = w.home.as_ref().unwrap();
                if w.three_leg {
                    send_h2r_frame(
                        w,
                        s,
                        to,
                        Frame::Data {
                            msg: fill,
                            val: h.image,
                        },
                    );
                } else {
                    send_h2r(w, s, to, fill);
                }
            }
            HomeAction::SendGrant { to, acks, data } => {
                let h = w.home.as_mut().unwrap();
                let Some((kind, keep)) = h.grant.take() else {
                    s.fail(w, "a directed grant sent that nobody granted");
                };
                let data = data.then_some(h.image);
                send_h2r_frame(
                    w,
                    s,
                    to,
                    Frame::LockGrant {
                        kind,
                        intent: true,
                        keep,
                        acks: Some(acks),
                        data,
                    },
                );
            }
            // Migration messages cannot be sent in this world (no
            // `BeginMigration` is ever injected); the elastic re-homing
            // search in the `migration` module covers them.
            HomeAction::Send {
                msg:
                    Msg::MigrateAck { .. }
                    | Msg::MigrateCommit { .. }
                    | Msg::MigrateForward { .. }
                    | Msg::HomeMoved { .. },
                ..
            } => s.fail(w, "migration message in a migration-free world"),
            HomeAction::Send { to, msg } => send_h2r(w, s, to, msg),
            HomeAction::ApplyFlushData { .. } => s.ck.reductions += 1,
            HomeAction::SetHomeLocal { state, tag } => {
                w.home.as_mut().unwrap().dentry = (state, tag);
            }
            HomeAction::StartHomeDrain { target, tag } => {
                let h = w.home.as_mut().unwrap();
                if h.draining {
                    s.fail(w, "overlapping home drains");
                }
                h.dentry = (target, tag);
                h.draining = true;
            }
            HomeAction::ScheduleRetry { at } => {
                if w.retry_at.is_some() {
                    s.fail(w, "two grace retries scheduled at once");
                }
                w.retry_at = Some(at);
            }
            HomeAction::Trace(_) => {}
            HomeAction::Count(c) => match c {
                Counter::DirectWrites => s.ck.directed_writes += 1,
                Counter::EpochsAborted => s.ck.epochs_aborted += 1,
                Counter::SharersPruned => s.ck.sharers_pruned += 1,
                Counter::FlushPersists => s.ck.persist_acks += 1,
                _ => {}
            },
            HomeAction::PersistChunk { seq } => {
                s.ck.persists += 1;
                if w.pending_persist.is_some() {
                    s.fail(w, "two persists pending at once");
                }
                if !w.durable {
                    s.fail(w, "a non-durable machine emitted PersistChunk");
                }
                w.pending_persist = Some(seq);
            }
            HomeAction::TransferChunk { .. }
            | HomeAction::DepartChunk { .. }
            | HomeAction::AdoptChunk { .. } => {
                s.fail(w, "migration action in a migration-free world")
            }
        }
    }
}

/// Send a protocol message from the home to remote node `to`. A send to a
/// node the home has already declared dead is a recovery bug — the whole
/// point of `forget_peer` is that no action ever references a corpse.
fn send_h2r(w: &mut World, s: &mut Search<World>, to: usize, msg: Msg) {
    send_h2r_frame(w, s, to, Frame::Coherence(msg));
}

/// [`send_h2r`] for any frame.
fn send_h2r_frame(w: &mut World, s: &mut Search<World>, to: usize, frame: Frame) {
    if w.home.as_ref().unwrap().knows_dead[to - 1] {
        s.fail(
            w,
            &format!("home sent {frame:?} to node {to} it knows is dead"),
        );
    }
    if w.rem[to - 1].alive {
        w.h2r[to - 1].push_back(frame);
    }
    // else: the node died but the detector hasn't fired yet; the message is
    // lost in flight (prefix truncation already modeled it).
}

/// Feed one event to the cache machine of remote `i` and execute its
/// actions. Uses a worklist because some actions (line allocation, waiter
/// rechecks) synchronously produce follow-up events.
fn run_cache_event(w: &mut World, s: &mut Search<World>, i: usize, first: CacheEvent) {
    let mut events = VecDeque::from([first]);
    while let Some(ev) = events.pop_front() {
        let r = &w.rem[i];
        let view = CacheView {
            state: r.state,
            op_tag: r.op_tag,
            line: r.line,
            draining: r.after.is_some(),
            home: HOME,
            acks: r.acks,
            granted: r.granted,
        };
        let mut wake = false;
        for a in CacheMachine::on_event(&view, ev) {
            match a {
                CacheAction::QueueWaiter => {}
                CacheAction::WakeRequester | CacheAction::WakeAllWaiters => wake = true,
                CacheAction::BeginDrain { target, tag, after } => {
                    let r = &mut w.rem[i];
                    if r.after.is_some() {
                        s.fail(w, "overlapping drains on one dentry");
                    }
                    r.state = target;
                    r.op_tag = tag;
                    r.after = Some(after);
                }
                CacheAction::AllocLine { kind } => {
                    events.push_back(CacheEvent::LineAllocated { line: LINE, kind });
                }
                CacheAction::SetLine { line } => w.rem[i].line = line,
                // The grant's value already landed (`deliver_to_remote`).
                CacheAction::InstallGrant => {
                    let r = &mut w.rem[i];
                    (r.line, r.state, r.op_tag) = (LINE, LocalState::Shared, NOTAG);
                }
                CacheAction::ReleaseLine { line } => {
                    if line != LINE_NONE {
                        w.rem[i].line = LINE_NONE;
                    }
                }
                CacheAction::SetTransient { state } => w.rem[i].state = state,
                CacheAction::Promote { state, tag } => {
                    let r = &mut w.rem[i];
                    r.state = state;
                    r.op_tag = tag;
                }
                CacheAction::InitOperandBuffer { .. } => {}
                CacheAction::Send { to: HOME, msg } => send_r2h(w, s, i, msg),
                // A sharer's ack of a directed write, to its writer.
                CacheAction::Send { to, msg } => send_r2r(w, i, to, Frame::Coherence(msg)),
                CacheAction::SendAfterDrain { to, msg } => {
                    let r = &mut w.rem[i];
                    if r.after.is_none() || r.send_after_drain.replace((to, msg)).is_some() {
                        s.fail(w, "an ack deferred past no drain, or two at once");
                    }
                }
                CacheAction::SetAcks { acks, granted } => {
                    let r = &mut w.rem[i];
                    (r.acks, r.granted) = (acks, granted);
                }
                CacheAction::SendWriteback {
                    downgrade,
                    release,
                    direct,
                    ..
                } => {
                    let msg = Msg::WritebackNotice { downgrade, direct };
                    if w.three_leg {
                        let val = w.rem[i].val;
                        send_r2h_frame(w, s, i, Frame::Data { msg, val });
                    } else {
                        send_r2h(w, s, i, msg);
                    }
                    if release {
                        w.rem[i].line = LINE_NONE;
                    }
                }
                CacheAction::SendFill {
                    to,
                    exclusive,
                    release,
                    ..
                } => {
                    if exclusive {
                        s.ck.direct_write_fills += 1;
                    } else {
                        s.ck.direct_read_fills += 1;
                    }
                    let frame = Frame::Data {
                        msg: Msg::fill(exclusive, true),
                        val: w.rem[i].val,
                    };
                    send_r2r(w, i, to, frame);
                    if release {
                        w.rem[i].line = LINE_NONE;
                    }
                }
                CacheAction::SendFlush {
                    op, release, keep, ..
                } => {
                    send_r2h(
                        w,
                        s,
                        i,
                        Msg::OperandFlush {
                            op,
                            data: vec![1],
                            keep,
                        },
                    );
                    if release {
                        w.rem[i].line = LINE_NONE;
                    }
                }
                CacheAction::SendUpgrade { kind, .. } => {
                    send_r2h(w, s, i, Msg::request(kind, 0));
                }
                CacheAction::Trace(t) if t.from == LocalState::OperatedIdle.name() => {
                    s.ck.idle_exits.insert(t.trigger);
                }
                CacheAction::PrefetchHint | CacheAction::Trace(_) | CacheAction::Count(_) => {}
            }
        }
        if wake {
            recheck_app(w, i, &mut events);
        }
    }
}

/// Send a frame from remote `i` to node `to`, the other remote: a
/// three-leg fill, or a sharer's ack of a directed write.
fn send_r2r(w: &mut World, i: usize, to: usize, frame: Frame) {
    assert_eq!(
        to,
        2 - i,
        "a remote-to-remote frame goes to the other remote"
    );
    if w.rem[1 - i].alive {
        w.r2r[i].push_back(frame);
    }
}

/// Send a protocol message from remote `i` to the home. A send after the
/// node consumed the home's `Down` marker is a recovery bug: every cache
/// path must go local-only once the home is known dead.
fn send_r2h(w: &mut World, s: &mut Search<World>, i: usize, msg: Msg) {
    send_r2h_frame(w, s, i, Frame::Coherence(msg));
}

/// [`send_r2h`] for any frame.
fn send_r2h_frame(w: &mut World, s: &mut Search<World>, i: usize, frame: Frame) {
    if w.rem[i].home_down {
        s.fail(
            w,
            &format!("r{} sent {frame:?} to a home it knows is dead", i + 1),
        );
    }
    if w.home.is_some() {
        w.r2h[i].push_back(frame);
    }
    // else: home died, marker in flight; the message is never consumed.
}

/// A wake fired on remote `i`: the parked application request re-checks its
/// rights, exactly like the runtime's retry loop. It either completes
/// (satisfied, or home dead ⇒ NodeUnavailable) or re-issues the request.
fn recheck_app(w: &mut World, i: usize, events: &mut VecDeque<CacheEvent>) {
    let r = &mut w.rem[i];
    let App::Waiting(kind) = r.app else {
        return;
    };
    if r.state.permits(kind, || r.op_tag) || r.home_down {
        r.app = App::Idle;
        // A write writes a fresh value (three-leg world).
        if w.three_leg && kind == Kind::Write && !r.home_down {
            w.latest += 1;
            r.val = w.latest;
        }
    } else {
        let drain_pending = r.after.is_some();
        events.push_back(CacheEvent::Request {
            kind,
            home_down: false,
            drain_pending,
        });
    }
}

// ---------------------------------------------------------------------------
// Worlds
// ---------------------------------------------------------------------------

fn initial_world(
    req: [u8; NREM],
    locks: [u8; NREM],
    evicts: [u8; NREM],
    home_req: u8,
    home_locks: u8,
    kills: u8,
    suspects: u8,
) -> World {
    World {
        home: Some(Home {
            m: HomeMachine::new(),
            locks: LockTable::default(),
            dentry: (LocalState::Exclusive, NOTAG),
            draining: false,
            knows_dead: [false; NREM],
            app: App::Idle,
            lock: Lock::Idle,
            req_budget: home_req,
            lock_budget: home_locks,
            image: 0,
            grant: None,
        }),
        rem: [
            Remote::fresh(req[0], locks[0], evicts[0]),
            Remote::fresh(req[1], locks[1], evicts[1]),
        ],
        h2r: [VecDeque::new(), VecDeque::new()],
        r2h: [VecDeque::new(), VecDeque::new()],
        r2r: [VecDeque::new(), VecDeque::new()],
        grace: 0,
        now: 0,
        retry_at: None,
        kill_budget: kills,
        suspected: [false; NREM],
        suspect_budget: suspects,
        durable: false,
        pending_persist: None,
        disk_seq: 0,
        acked_seq: 0,
        restart_budget: 0,
        ckpt: None,
        ckpt_prev: None,
        trunc_floor: 0,
        compacting: None,
        compact_budget: 0,
        intent_locks: false,
        three_leg: false,
        latest: 0,
        second_op: false,
    }
}

/// Durable-mode world: the home machine gates acknowledgements on the
/// modeled chunk store, and `restarts` node rebirths may be injected.
fn durable_world(mut w: World, restarts: u8) -> World {
    w.durable = true;
    w.restart_budget = restarts;
    w.home.as_mut().unwrap().m.set_durable(true);
    w
}

/// Compaction world: on top of a durable world, up to `compactions`
/// checkpoint/compaction sequences may start at any point, each walking
/// the snapshot→rotate→rename→truncate ladder with kills between phases.
fn compaction_world(mut w: World, compactions: u8) -> World {
    assert!(w.durable, "compaction requires the durable world");
    w.compact_budget = compactions;
    w
}

/// Three-leg world: the home recalls a Dirty chunk for a remote read or
/// write in three legs (DESIGN.md §4.2), the remotes have a link to each
/// other for the owner's fill, and the world tracks the chunk's values.
fn three_leg_world(mut w: World) -> World {
    w.three_leg = true;
    w.home.as_mut().unwrap().m.set_direct_fill(true);
    w
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

// Every search pins its exact state count: a change that moves one re-pins
// it on purpose and says why, as a re-blessed baseline does.

/// The main coherence search: no grace window (every transient is reachable
/// without time passing), two remotes issuing Read/Write/Operate plus one
/// eviction, and one kill (home or remote 1) injected at every point —
/// including every surviving-prefix truncation of the victim's in-flight
/// messages. Lock traffic is checked by [`crash_model_locks`] (the two
/// subsystems only meet at the `PeerDown` sweep, so searching them
/// separately sums the state spaces instead of multiplying them).
#[test]
fn crash_model_coherence_no_grace() {
    let s = explore(
        "coherence",
        initial_world([2, 2], [0, 0], [1, 1], 2, 0, 1, 0),
    );
    assert_eq!(s.seen.len(), 431_605);

    // A PeerDown must have been injected into every transient phase the
    // protocol can be in (GraceWait needs grace > 0; see the other test).
    for t in [
        "None",
        "AwaitInvAcks",
        "AwaitWriteback",
        "AwaitFlushes",
        "HomeDrain",
    ] {
        assert!(
            s.ck.pd_transients.contains(t),
            "no kill was consumed during transient {t}: {:?}",
            s.ck.pd_transients
        );
    }
    assert!(
        s.ck.pd_states.contains("Operated"),
        "no kill landed during an Operated epoch: {:?}",
        s.ck.pd_states
    );
    assert!(
        s.ck.epochs_aborted > 0,
        "no Operated epoch was ever closed by abort"
    );
    // An evicted Operated line kept its rights, and the idle chunk left
    // them every way it can: re-acquired, recalled while idle or while
    // its eviction drained, or asked for other rights.
    for exit in ["reacquire", "recall-idle", "recall-evicting", "leave-idle"] {
        assert!(
            s.ck.idle_exits.contains(exit),
            "no idle chunk left by {exit}: {:?}",
            s.ck.idle_exits
        );
    }
    // Every stable state serves each kind of request from a remote that
    // holds nothing, and from the home each one its dentry's rights do not
    // cover (the executor answers the rest from the dentry; `home.rs`'s
    // unit tests feed those to the machine).
    let rows = [
        ("Unshared", 0, LocalState::Exclusive),
        ("Shared", 0, LocalState::Shared),
        ("Shared", 1, LocalState::Shared),
        ("Shared", 2, LocalState::Shared),
        ("Dirty", 1, LocalState::Invalid),
        ("Operated", 0, LocalState::Operated),
        ("Operated", 1, LocalState::Operated),
        ("Operated", 2, LocalState::Operated),
    ];
    let mut want = Vec::new();
    for (state, holders, dentry) in rows {
        for (kind, name) in KINDS.into_iter().zip(["Read", "Write", "Operate"]) {
            if holders < NREM {
                want.push((state, holders, name, "Remote"));
            }
            if !dentry.permits(kind, || OP) {
                want.push((state, holders, name, "Local"));
            }
        }
    }
    assert_reached(&s.ck.cells.requests, &want);
    assert_reached(
        &s.ck.cells.pairs,
        &[
            ("AwaitInvAcks", "InvAck"),
            ("AwaitWriteback", "Writeback"),
            ("AwaitFlushes", "Flush"),
            ("HomeDrain", "Drained"),
        ],
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Lock-subsystem search: both remotes and the home contend on one element
/// with reader and writer locks while one kill (home or remote 1) lands at
/// every point. Asserts orphaned locks are reclaimed and no waiter is left
/// blocked on a dead grantor or dead holder.
#[test]
fn crash_model_locks() {
    let s = explore("locks", initial_world([0, 0], [2, 2], [0, 0], 0, 2, 1, 0));
    assert_eq!(s.seen.len(), 8_209);

    assert!(
        s.ck.locks_reclaimed > 0,
        "no orphaned lock was ever reclaimed"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Cross-subsystem search: one remote drives coherence *and* lock traffic
/// at once with a kill, so the `PeerDown` sweep (directory cleanup followed
/// by the lock purge) is exercised with both subsystems mid-flight. Remote
/// locks may be write-intent locks (DESIGN.md §4.5), whose grant runs the
/// home's and the grantee's write misses for the chunk and whose release
/// evicts the grantee's copy, or downgrades it to Shared when the grant
/// said to keep it: single writer, lock exclusion and directory agreement
/// must hold through every interleaving of those with the data traffic
/// and the kill.
#[test]
fn crash_model_combined() {
    let mut w = initial_world([1, 1], [1, 1], [0, 0], 0, 1, 1, 0);
    w.intent_locks = true;
    let s = explore("combined", w);
    assert_eq!(s.seen.len(), 1_048_695);
    println!(
        "[combined-intent] intent_grants={} intent_pulls={} hand_backs={} keeps={}",
        s.ck.intent_grants, s.ck.intent_pulls, s.ck.hand_backs, s.ck.keeps
    );

    assert!(
        s.ck.intent_grants > 0,
        "no write-intent lock was ever granted"
    );
    assert!(
        s.ck.intent_pulls > 0,
        "no intent grant ever pulled the chunk from another holder"
    );
    assert!(
        s.ck.hand_backs > 0,
        "no intent release ever handed the chunk back"
    );
    assert!(s.ck.keeps > 0, "no intent release ever kept a Shared copy");
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Suspected-but-alive search (DESIGN.md §12): the home may falsely suspect
/// either live remote while coherence traffic (including Write requests
/// that put a remote in Exclusive with unwritten Dirty data) is in flight,
/// and one real kill can land at any point — including mid-suspicion, so
/// both resolutions (refute for a live suspect, the `Down` marker for a
/// dead one) interleave with every protocol phase. Safety asserts no live
/// peer is ever declared dead; quiescence asserts the directory and every
/// survivor's dentry still agree after suspect → refute → replay cycles —
/// i.e. no reachable interleaving reclaims locks or discards the Dirty
/// writes of a peer that was merely suspected.
#[test]
fn crash_model_suspected_but_alive() {
    let s = explore(
        "suspected",
        initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 2),
    );
    assert_eq!(s.seen.len(), 147_531);

    assert!(
        s.ck.suspect_refutes > 0,
        "no suspicion of a live remote was ever refuted"
    );
    assert!(
        s.ck.suspect_confirms > 0,
        "no suspicion was ever resolved by the suspect's actual death"
    );
    assert!(
        s.ck.suspected_dirty_states > 0,
        "no reachable state had a live suspect holding unwritten Dirty data"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Durable kill-then-restart search (DESIGN.md §14): the home gates every
/// dirty-data acknowledgement on a modeled chunk-store persist, a kill can
/// land at any point — including mid-persist, branching on whether the
/// record reached the log — and one restart may rebirth the victim, which
/// recovers exactly the log's contents (`disk_seq`). Safety carries the
/// theorem in every reachable state: `acked_seq <= disk_seq`, i.e. every
/// write the protocol acknowledged before the kill is durably recoverable,
/// and the replay frontier never regresses (a restarted node's new records
/// always supersede the replayed ones). Quiescence additionally proves the
/// rebirthed identity serves traffic again: survivors void the old
/// incarnation's grants (`Restarted` after the `Down` marker) and re-fill
/// from the recovered image, and a restarted remote is re-admitted at a
/// bumped view epoch.
#[test]
fn crash_model_durable_restart() {
    let s = explore(
        "durable",
        durable_world(initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 0), 1),
    );
    assert_eq!(s.seen.len(), 64_564);

    assert!(s.ck.persists > 0, "no flush was ever persisted");
    assert!(
        s.ck.persist_acks > 0,
        "no persist was ever acknowledged by the machine"
    );
    assert!(
        s.ck.killed_mid_persist > 0,
        "no kill ever landed while a persist was pending"
    );
    assert!(
        s.ck.pd_transients.contains("AwaitPersist"),
        "no remote death was consumed during AwaitPersist: {:?}",
        s.ck.pd_transients
    );
    assert!(s.ck.home_restarts > 0, "the home was never restarted");
    assert!(s.ck.remote_restarts > 0, "a remote was never restarted");
    // A restarted home voids idle rights, also while their eviction drains.
    for exit in ["home-restarted", "home-restarted-evicting"] {
        assert!(
            s.ck.idle_exits.contains(exit),
            "no idle chunk left by {exit}: {:?}",
            s.ck.idle_exits
        );
    }
    assert_reached(&s.ck.cells.pairs, &[("AwaitPersist", "PersistDone")]);
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Checkpoint/compaction crash-matrix search (DESIGN.md §14): on top of
/// the durable world, up to two compaction sequences may start at any
/// point, and the one kill can land *between any two phases* of the
/// snapshot→rotate→rename→truncate ladder — every crash point of
/// `LogChunkStore::checkpoint`. Safety carries three theorems in every
/// reachable state: persist-before-ack (`acked_seq <= disk_seq`),
/// lag-by-one truncation (`trunc_floor <=` the fallback generation — a
/// torn newest checkpoint never strands a truncated record), and full
/// recoverability (newest readable checkpoint + log suffix covers every
/// acknowledged write, in every phase). The restart recomputes the replay
/// frontier from the disk exactly as reopen does, so a compaction that
/// lost a window would surface as a persist-before-ack violation on the
/// next state. Two sequences are required so the second runs with a
/// populated `.prev` and a non-trivial truncation.
#[test]
fn crash_model_durable_compaction() {
    let s = explore(
        "compaction",
        compaction_world(
            durable_world(initial_world([2, 1], [0, 0], [1, 0], 1, 0, 1, 0), 1),
            2,
        ),
    );
    assert_eq!(s.seen.len(), 621_864);

    assert!(s.ck.persists > 0, "no flush was ever persisted");
    assert!(
        s.ck.compactions_completed > 0,
        "no compaction sequence ever ran to completion"
    );
    for phase in ["WriteTmp", "Rotate", "Rename", "Truncate"] {
        assert!(
            s.ck.killed_mid_compaction.contains(phase),
            "no kill landed before compaction phase {phase}: {:?}",
            s.ck.killed_mid_compaction
        );
    }
    assert!(
        s.ck.restarts_from_checkpoint > 0,
        "no restart ever recovered through a checkpoint generation"
    );
    assert!(s.ck.home_restarts > 0, "the home was never restarted");
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Double-kill membership search: with a kill budget of two, the quorum
/// may confirm TWO simultaneous deaths (`KillBoth` — both remotes at once,
/// independent surviving prefixes) as well as any two sequential kills.
/// The home consumes the two Down markers in either order, burning one
/// view epoch per death, and must survive with a coherent directory: both
/// sweeps prune sharers/wait-sets/locks, no bookkeeping references either
/// corpse, and quiescence still holds. Safety's "no live peer declared
/// dead" covers the markers crossing in flight with the victims' last
/// protocol messages.
#[test]
fn crash_model_double_kill() {
    let s = explore(
        "double-kill",
        initial_world([1, 1], [1, 1], [1, 0], 1, 0, 2, 0),
    );
    assert_eq!(s.seen.len(), 541_226);

    assert!(
        s.ck.double_kills > 0,
        "no simultaneous double kill was injected"
    );
    assert!(
        s.ck.both_dead_states > 0,
        "the home never survived both remote deaths confirmed"
    );
    assert!(
        s.ck.locks_reclaimed > 0,
        "no orphaned lock was reclaimed across the double death"
    );
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

/// Grace-window variant: with `grace_ns = 1` every fresh grant opens a
/// GraceWait window, so kills and retries land inside it. Smaller budgets
/// keep the (now time-carrying) state space in check. Requests may name a
/// second operator, so an Operated chunk with no, one or two remote
/// sharers meets another operator's request, from the home or from a
/// remote holding nothing, and Figure 9's recall when operators mix runs
/// with the kill; remote 1's eviction lands a keep flush in the window.
#[test]
fn crash_model_grace_window() {
    let mut w = initial_world([1, 1], [0, 0], [1, 0], 1, 0, 1, 0);
    w.grace = 1;
    w.second_op = true;
    let s = explore("grace", w);
    // 4,361 before requests could name a second operator and remote 1
    // evict: one operator's recall for another's, with the kill anywhere
    // in it, and a keep flush are states a one-operator world never had.
    assert_eq!(s.seen.len(), 13_825);

    assert!(
        s.ck.retry_transients.contains("GraceWait"),
        "no retry ever fired inside a grace window: {:?}",
        s.ck.retry_transients
    );
    assert!(
        s.ck.pd_transients.contains("GraceWait"),
        "no kill was consumed during GraceWait: {:?}",
        s.ck.pd_transients
    );
    let mixed = "Operate-other";
    assert_reached(
        &s.ck.cells.requests,
        &[
            ("Operated", 0, mixed, "Local"),
            ("Operated", 1, mixed, "Local"),
            ("Operated", 2, mixed, "Local"),
            ("Operated", 0, mixed, "Remote"),
            ("Operated", 1, mixed, "Remote"),
        ],
    );
    assert_reached(
        &s.ck.cells.pairs,
        &[("GraceWait", "RetryExpired"), ("GraceWait", "Flush")],
    );
    assert!(s.quiescent > 0);
}

/// Three-leg recall search (DESIGN.md §4.2), fault-free: no kill and no
/// suspicion, as the short path runs only where no node can die. Remote 1
/// reads or writes once, evicts once and may take a write-intent lock
/// whose unlock downgrades its copy; remote 2 reads or writes twice; the
/// home reads or writes once. So a recall can find its owner's voluntary
/// writeback or intent downgrade already on the way (the crossing), a
/// stale Invalidate can still be on its way to a requester, requests
/// queue behind a pending fill, and reads are served while a read's
/// recall awaits its ack. A remote write of a chunk the other remote
/// shares is directed: the sharer acks the writer over the remotes' link,
/// whether its copy is Shared, mid-drain, already gone or refilling, the
/// ack can land before the home's fill, and requests queue behind the
/// writer's `FillAck`. Remote 1's write-intent grants are served directed
/// (DESIGN.md §4.5) whenever the chunk is stable and Shared: to a sharer,
/// which keeps its copy, or to a non-sharer, with the value;
/// another sharer's ack can land before the grant, remote 1's eviction
/// can cross it, a grant's data can find remote 1 refilling, and the
/// unlock can come before the last ack.
/// Safety holds single writer (a node whose three-leg fill is in flight
/// holds the chunk already, and a directed writer holds it only once its
/// acks and data are in) and that every readable copy, the home image's
/// included, holds the last value written; quiescence holds directory
/// agreement, as in every search.
#[test]
fn crash_model_three_leg_recall() {
    let mut w = three_leg_world(initial_world([1, 2], [1, 0], [1, 0], 1, 0, 0, 0));
    w.intent_locks = true;
    let s = explore("three-leg", w);
    println!(
        "[three-leg-paths] read_fills={} write_fills={} crossing_writebacks={} \
         crossing_downgrades={} queued={} reads_during={} directed_writes={} \
         acks_before_fill={} directed_crossed={} directed_mid_drain={} \
         directed_filling={} queued_directed={} grants_to_sharers={} \
         grants_to_non_sharers={} grants_declined={} grants_pulled={} acks_before_grant={} \
         evictions_crossing_grant={} grants_empty={} unlocks_before_last_ack={}",
        s.ck.direct_read_fills,
        s.ck.direct_write_fills,
        s.ck.crossing_writebacks,
        s.ck.crossing_downgrades,
        s.ck.queued_behind_direct,
        s.ck.reads_during_direct,
        s.ck.directed_writes,
        s.ck.acks_before_fill,
        s.ck.directed_crossed,
        s.ck.directed_mid_drain,
        s.ck.directed_filling,
        s.ck.queued_behind_directed,
        s.ck.grants_to_sharers,
        s.ck.grants_to_non_sharers,
        s.ck.grants_declined,
        s.ck.grants_pulled,
        s.ck.acks_before_grant,
        s.ck.evictions_crossing_grant,
        s.ck.grants_empty,
        s.ck.unlocks_before_last_ack
    );
    // 253,972 before the directed write: the acks it sends over the
    // remotes' link, and the count its writer keeps, are states the
    // home-collected acks never had. 288,422 before the directed grant:
    // a grant to a sharer replaces the home's pull and the grantee's write
    // miss, and a grant of a shared chunk's value to a non-sharer adds
    // the install, the value a refilling grantee declines, and the empty
    // ack.
    assert_eq!(s.seen.len(), 295_084);
    for (what, n) in [
        ("three-leg read fill", s.ck.direct_read_fills),
        ("three-leg write fill", s.ck.direct_write_fills),
        (
            "voluntary writeback crossing a recall",
            s.ck.crossing_writebacks,
        ),
        (
            "intent downgrade crossing a recall",
            s.ck.crossing_downgrades,
        ),
        (
            "request queued behind a three-leg fill",
            s.ck.queued_behind_direct,
        ),
        (
            "read served during a read recall's ack wait",
            s.ck.reads_during_direct,
        ),
        ("directed write", s.ck.directed_writes),
        ("sharer's ack ahead of the fill", s.ck.acks_before_fill),
        (
            "directed invalidation crossing an eviction",
            s.ck.directed_crossed,
        ),
        ("directed invalidation mid-drain", s.ck.directed_mid_drain),
        (
            "directed invalidation of a filling sharer",
            s.ck.directed_filling,
        ),
        (
            "request queued behind a directed write's ack",
            s.ck.queued_behind_directed,
        ),
        ("directed grant to a sharer", s.ck.grants_to_sharers),
        ("directed grant to a non-sharer", s.ck.grants_to_non_sharers),
        (
            "data grant declined by a filling grantee",
            s.ck.grants_declined,
        ),
        ("intent grant that pulled", s.ck.grants_pulled),
        ("sharer's ack ahead of the grant", s.ck.acks_before_grant),
        (
            "eviction notice crossing a directed grant",
            s.ck.evictions_crossing_grant,
        ),
        ("grant ending with no copy", s.ck.grants_empty),
        ("unlock before the last ack", s.ck.unlocks_before_last_ack),
    ] {
        assert!(n > 0, "no {what}");
    }
    assert!(s.quiescent > 0, "the search never reached quiescence");
}

// ===========================================================================
// Elastic re-homing search (DESIGN.md §15): join + migrate under crashes
// ===========================================================================

/// A second, self-contained world for the chunk-migration state machine.
///
/// Three nodes: the **source** home (node 0), the **target** home (node 1 —
/// a freshly joined node, so its machine starts cold exactly as
/// `Cluster::join_peer` brings it up), and one **requester** (node 2)
/// issuing Read/Write/Operate traffic against whichever home its home-map
/// view names, and evicting its line, through the real [`CacheMachine`].
/// An evicted Operated line keeps its rights (`OperatedIdle`), so
/// `HomeMoved` reaches the requester during and after that eviction's
/// drain. The search drives one `BeginMigration` through every
/// interleaving of requests, recalls, transfers, acks, commits, persists
/// and **kills of source, target, or requester** (with every surviving
/// prefix of the victim's in-flight messages), and checks the two §15
/// theorems in every reachable state:
///
/// * **single authority** — the source (alive, not departed) and the
///   target (alive, adopted) are never simultaneously authoritative;
/// * **no acked write lost** (durable mode) — every value whose persist
///   the protocol acknowledged is recoverable: it lives in a live
///   authoritative home's image, or best-epoch-wins log replay would
///   restore it. The migration fence (`mig_epoch` burned as a persist
///   sequence) is exactly what makes the target's log outrank the
///   source's here.
mod migration {
    use super::*;

    /// Node ids: source home, target home (the joiner), requester.
    const SRC: usize = 0;
    const TGT: usize = 1;
    const REQ: usize = 2;

    /// One in-flight frame on a migration-world link. A data-bearing
    /// message (a fill, a writeback, a chunk transfer) carries in `write`
    /// the value its one-sided RDMA WRITE lands at delivery time — RC FIFO
    /// makes the write visible exactly when the trailing notification is
    /// consumed.
    #[derive(Debug, Clone, PartialEq, Eq, Hash)]
    enum MFrame {
        Coherence { msg: Msg, write: Option<u64> },
        Down { dead: usize },
    }

    /// One home node of the migration world.
    #[derive(Debug, Clone, Hash)]
    struct MHome {
        m: HomeMachine<u32>,
        dentry: (LocalState, u32),
        draining: bool,
        /// `AdoptChunk` fired: this node is the chunk's authoritative home.
        adopted: bool,
        /// `DepartChunk` fired: this node is a former home.
        departed: bool,
        knows_dead: [bool; 3],
        view_epoch: u64,
    }

    impl MHome {
        fn fresh() -> Self {
            MHome {
                m: HomeMachine::new(),
                dentry: (LocalState::Invalid, NOTAG),
                draining: false,
                adopted: false,
                departed: false,
                knows_dead: [false; 3],
                view_epoch: 0,
            }
        }
    }

    #[derive(Debug, Clone, Hash)]
    struct MigWorld {
        homes: [Option<MHome>; 2],
        // The requester's minimal cache: one dentry driven by the cache
        // machine, one line, one app slot.
        r_alive: bool,
        r_state: LocalState,
        r_op: u32,
        r_line: u32,
        /// `Some` while a Figure-5 drain is pending (the continuation).
        r_after: Option<AfterDrain>,
        /// The value in the requester's line while it holds a copy.
        r_val: u64,
        /// The requester's home-map view of the chunk (`home_on`).
        r_home: usize,
        r_home_epoch: u64,
        r_knows_dead: [bool; 2],
        r_app: App,
        r_req_budget: u8,
        r_evict_budget: u8,
        /// Home images (the chunk's home slot per node).
        img: [u64; 2],
        /// Durable log per home: highest `(seq, value)` record. `(0, 0)` is
        /// the empty log (the initial image is value 0 at epoch 0).
        log: [(u64, u64); 2],
        /// A `PersistChunk` accepted but not yet completed: `(seq, value
        /// captured at emission)`.
        pending_persist: [Option<(u64, u64)>; 2],
        /// FIFO links, indexed by [from][to] over {SRC, TGT, REQ}; the
        /// diagonal is unused.
        links: [[std::collections::VecDeque<MFrame>; 3]; 3],
        /// `BeginMigration` not yet injected.
        mig_pending: bool,
        kill_budget: u8,
        durable: bool,
        /// Monotone value generator for requester writes.
        next_val: u64,
        /// Highest value whose persist the protocol acknowledged.
        acked_val: u64,
    }

    impl MigWorld {
        fn new(req_budget: u8, evict_budget: u8, kills: u8, durable: bool) -> Self {
            let mut src = MHome::fresh();
            src.dentry = (LocalState::Exclusive, NOTAG);
            let mut tgt = MHome::fresh();
            if durable {
                src.m.set_durable(true);
                tgt.m.set_durable(true);
            }
            MigWorld {
                homes: [Some(src), Some(tgt)],
                r_alive: true,
                r_state: LocalState::Invalid,
                r_op: NOTAG,
                r_line: LINE_NONE,
                r_after: None,
                r_val: 0,
                r_home: SRC,
                r_home_epoch: 0,
                r_knows_dead: [false; 2],
                r_app: App::Idle,
                r_req_budget: req_budget,
                r_evict_budget: evict_budget,
                img: [0, 0],
                log: [(0, 0), (0, 0)],
                pending_persist: [None, None],
                links: Default::default(),
                mig_pending: true,
                kill_budget: kills,
                durable,
                next_val: 1,
                acked_val: 0,
            }
        }

        fn alive(&self, node: usize) -> bool {
            match node {
                REQ => self.r_alive,
                h => self.homes[h].is_some(),
            }
        }
    }

    /// Coverage tallies for the migration search.
    #[derive(Default)]
    struct MCk {
        /// `(victim, survivor transient name)` at each `Down` consumption.
        kill_phases: BTreeSet<(&'static str, &'static str)>,
        /// Quiescent states where the migration fully committed.
        completed: usize,
        /// Quiescent states where the source re-assumed after a target death.
        aborted: usize,
        migrations_out: usize,
        migrations_in: usize,
        parked_replays: usize,
        forwards: usize,
        /// Operand flushes the requester sent keeping its rights.
        keep_flushes: usize,
        /// The requester's dentry state at each `HomeMoved` its cache
        /// machine consumed, `+drain` while a drain was pending.
        moved_states: BTreeSet<String>,
        /// What the search fed the two home machines.
        cells: Cells,
    }

    impl AsRef<Cells> for MCk {
        fn as_ref(&self) -> &Cells {
            &self.cells
        }
    }

    impl Display for MCk {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(
                f,
                "completed={} aborted={} migrations_out={} migrations_in={} \
                 parked_replays={} forwards={} keep_flushes={} moved_states={:?} \
                 kill_phases={:?}",
                self.completed,
                self.aborted,
                self.migrations_out,
                self.migrations_in,
                self.parked_replays,
                self.forwards,
                self.keep_flushes,
                self.moved_states,
                self.kill_phases,
            )
        }
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum MTr {
        Deliver {
            from: usize,
            to: usize,
        },
        DrainHome(usize),
        /// The requester's pending drain completes.
        DrainReq,
        PersistDone(usize),
        BeginMigration,
        AppReq(Kind),
        /// Fast-path write on an already-Exclusive requester line.
        WriteHit,
        Evict,
        Kill {
            victim: usize,
            keep: [usize; 2],
            flush_disk: bool,
        },
    }

    /// A node's name in labels and kill tallies.
    fn name(node: usize) -> &'static str {
        match node {
            SRC => "src",
            TGT => "tgt",
            _ => "req",
        }
    }

    /// The two outgoing links of `victim`, in `keep[]` order.
    fn out_links(victim: usize) -> [(usize, usize); 2] {
        match victim {
            SRC => [(SRC, TGT), (SRC, REQ)],
            TGT => [(TGT, SRC), (TGT, REQ)],
            _ => [(REQ, SRC), (REQ, TGT)],
        }
    }

    impl Model for MigWorld {
        type Tr = MTr;
        type Ck = MCk;

        fn internal(&self) -> Vec<MTr> {
            let mut out = Vec::new();
            for from in 0..3 {
                for to in 0..3 {
                    if from != to && self.alive(to) && !self.links[from][to].is_empty() {
                        out.push(MTr::Deliver { from, to });
                    }
                }
            }
            for h in 0..2 {
                if let Some(home) = &self.homes[h] {
                    if home.draining {
                        out.push(MTr::DrainHome(h));
                    }
                    if self.pending_persist[h].is_some() {
                        out.push(MTr::PersistDone(h));
                    }
                }
            }
            if self.r_alive && self.r_after.is_some() {
                out.push(MTr::DrainReq);
            }
            out
        }

        fn external(&self) -> Vec<MTr> {
            let mut out = Vec::new();
            if self.mig_pending && self.homes[SRC].is_some() {
                out.push(MTr::BeginMigration);
            }
            // An in-flight request stays outstanding: the runtime parks
            // retries on the pending fill instead of issuing another.
            if self.r_alive
                && self.r_app == App::Idle
                && self.r_req_budget > 0
                && !self.r_state.in_flight()
                && !self.r_knows_dead[self.r_home]
            {
                for &kind in &KINDS[..3] {
                    if !self.r_state.permits(kind, || self.r_op) {
                        out.push(MTr::AppReq(kind));
                    }
                }
                if self.r_state == LocalState::Exclusive && self.r_after.is_none() {
                    out.push(MTr::WriteHit);
                }
            }
            if self.r_alive
                && self.r_evict_budget > 0
                && self.r_after.is_none()
                && matches!(
                    self.r_state,
                    LocalState::Shared | LocalState::Exclusive | LocalState::Operated
                )
            {
                out.push(MTr::Evict);
            }
            if self.kill_budget > 0 {
                for victim in 0..3 {
                    if !self.alive(victim) {
                        continue;
                    }
                    let [l0, l1] = out_links(victim);
                    for k0 in 0..=self.links[l0.0][l0.1].len() {
                        for k1 in 0..=self.links[l1.0][l1.1].len() {
                            out.push(MTr::Kill {
                                victim,
                                keep: [k0, k1],
                                flush_disk: false,
                            });
                            if victim < 2 && self.pending_persist[victim].is_some() {
                                out.push(MTr::Kill {
                                    victim,
                                    keep: [k0, k1],
                                    flush_disk: true,
                                });
                            }
                        }
                    }
                }
            }
            out
        }

        fn label(&self, tr: MTr) -> String {
            match tr {
                MTr::Deliver { from, to } => format!(
                    "deliver {}->{}: {:?}",
                    name(from),
                    name(to),
                    self.links[from][to].front().unwrap()
                ),
                MTr::DrainHome(h) => format!("{} home drain completes", name(h)),
                MTr::DrainReq => {
                    format!("req drain completes: {:?}", self.r_after.as_ref().unwrap())
                }
                MTr::PersistDone(h) => format!(
                    "{} disk completes persist {:?}",
                    name(h),
                    self.pending_persist[h].unwrap()
                ),
                MTr::BeginMigration => "BeginMigration(src -> tgt) injected".to_string(),
                MTr::AppReq(k) => format!("req app requests {k:?} from {}", name(self.r_home)),
                MTr::WriteHit => "req fast-path write (Exclusive hit)".to_string(),
                MTr::Evict => "eviction scan hits req".to_string(),
                MTr::Kill {
                    victim,
                    keep,
                    flush_disk,
                } => format!(
                    "KILL {} (kept prefixes {keep:?}, pending persist {})",
                    name(victim),
                    if flush_disk { "flushed" } else { "lost" }
                ),
            }
        }

        fn apply(&mut self, s: &mut Search<Self>, tr: MTr) {
            match tr {
                MTr::Deliver { from, to } => {
                    let msg = self.links[from][to].pop_front().unwrap();
                    if to == REQ {
                        m_deliver_to_req(self, s, from, msg);
                    } else {
                        m_deliver_to_home(self, s, to, from, msg);
                    }
                }
                MTr::DrainHome(h) => {
                    self.homes[h].as_mut().unwrap().draining = false;
                    m_run_home(self, s, h, HomeEvent::Drained);
                }
                MTr::DrainReq => {
                    let after = self.r_after.take().unwrap();
                    let home_down = self.r_knows_dead[self.r_home];
                    m_run_req(self, s, CacheEvent::Drained { after, home_down });
                }
                MTr::PersistDone(h) => {
                    let (seq, val) = self.pending_persist[h].take().unwrap();
                    if seq > self.log[h].0 {
                        self.log[h] = (seq, val);
                    }
                    // Record the acknowledgement for the no-lost-write theorem
                    // *before* the protocol resumes, mirroring the machine's
                    // own completion checks.
                    let awaited = match self.homes[h].as_ref().unwrap().m.transient() {
                        darray::protocol::Transient::AwaitPersist { seq: s } => seq >= *s,
                        darray::protocol::Transient::MigratingIn {
                            mig_epoch,
                            phase: darray::protocol::MigInPhase::Persist,
                            ..
                        } => seq >= *mig_epoch,
                        _ => false,
                    };
                    if awaited {
                        self.acked_val = self.acked_val.max(val);
                    }
                    m_run_home(self, s, h, HomeEvent::PersistDone { seq });
                }
                MTr::BeginMigration => {
                    self.mig_pending = false;
                    m_run_home(self, s, SRC, HomeEvent::BeginMigration { to: TGT });
                }
                MTr::AppReq(kind) => {
                    self.r_app = App::Waiting(kind);
                    self.r_req_budget -= 1;
                    let drain_pending = self.r_after.is_some();
                    m_run_req(
                        self,
                        s,
                        CacheEvent::Request {
                            kind,
                            home_down: false,
                            drain_pending,
                        },
                    );
                }
                MTr::WriteHit => {
                    self.r_req_budget -= 1;
                    self.r_val = self.next_val;
                    self.next_val += 1;
                }
                // Eviction notices, writebacks and flushes go to the node
                // the requester believes is home; a migration recall
                // crossing with them is exactly the race the protocol must
                // absorb.
                MTr::Evict => {
                    self.r_evict_budget -= 1;
                    m_run_req(self, s, CacheEvent::Evict);
                }
                MTr::Kill {
                    victim,
                    keep,
                    flush_disk,
                } => {
                    self.kill_budget -= 1;
                    if victim < 2 {
                        if let Some((seq, val)) = self.pending_persist[victim].take() {
                            if flush_disk && seq > self.log[victim].0 {
                                self.log[victim] = (seq, val);
                            }
                        }
                        self.homes[victim] = None;
                    } else {
                        self.r_alive = false;
                        self.r_state = LocalState::Invalid;
                        self.r_op = NOTAG;
                        self.r_line = LINE_NONE;
                        self.r_after = None;
                        self.r_val = 0;
                        self.r_app = App::Idle;
                        self.r_req_budget = 0;
                        self.r_evict_budget = 0;
                    }
                    // Inbound links to the corpse are never consumed.
                    for from in 0..3 {
                        if from != victim {
                            self.links[from][victim].clear();
                        }
                    }
                    // Outgoing links: an arbitrary prefix survives, then the
                    // quorum-confirmed Down marker (always last, FIFO).
                    for (i, (from, to)) in out_links(victim).into_iter().enumerate() {
                        self.links[from][to].truncate(keep[i]);
                        if self.alive(to) {
                            self.links[from][to].push_back(MFrame::Down { dead: victim });
                        } else {
                            self.links[from][to].clear();
                        }
                    }
                }
            }
        }

        /// §15 safety, checked in every reachable state.
        fn check_safety(&self, s: &mut Search<Self>) {
            let src_auth = self.homes[SRC]
                .as_ref()
                .is_some_and(|h| h.m.migrated_to().is_none() && !h.departed);
            let tgt_auth = self.homes[TGT].as_ref().is_some_and(|h| h.adopted);
            if src_auth && tgt_auth {
                s.fail(self, "two homes simultaneously authoritative");
            }
            // Executor/machine agreement on departure.
            if let Some(h) = &self.homes[SRC] {
                if h.departed != h.m.migrated_to().is_some() {
                    s.fail(self, "departed flag out of sync with migrated_to");
                }
            }
            // No acked write lost (durable): the newest acknowledged value is
            // recoverable — in a live authoritative home's image, or in the
            // log record best-epoch-wins replay would pick.
            if self.durable {
                let recoverable = if src_auth {
                    self.img[SRC]
                } else if tgt_auth {
                    self.img[TGT]
                } else if self.log[TGT].0 >= self.log[SRC].0 {
                    self.log[TGT].1
                } else {
                    self.log[SRC].1
                };
                if recoverable < self.acked_val {
                    s.fail(
                        self,
                        &format!(
                            "acked write lost: acked value {} but only {recoverable} recoverable",
                            self.acked_val
                        ),
                    );
                }
            }
        }

        /// Liveness at quiescence: nothing parked forever.
        fn check_quiescence(&self, s: &mut Search<Self>) {
            if self.r_alive && matches!(self.r_app, App::Waiting(_)) {
                s.fail(self, "requester app parked forever at quiescence");
            }
            for h in 0..2 {
                if let Some(home) = &self.homes[h] {
                    if !home.m.transient().is_none() {
                        s.fail(self, &format!("home {h} transient pending at quiescence"));
                    }
                    if home.m.pending_len() != 0 {
                        s.fail(
                            self,
                            &format!("home {h} still holds parked requests at quiescence"),
                        );
                    }
                }
            }
            let departed = self.homes[SRC].as_ref().is_some_and(|h| h.departed);
            let adopted = self.homes[TGT].as_ref().is_some_and(|h| h.adopted);
            if departed && adopted {
                s.ck.completed += 1;
            }
            // A target death must leave the source authoritative again.
            if self.homes[TGT].is_none() && !self.mig_pending {
                if let Some(src) = &self.homes[SRC] {
                    if src.m.migrated_to().is_none() {
                        s.ck.aborted += 1;
                    }
                }
            }
        }
    }

    /// Feed one event to home `h`'s machine and execute its actions.
    fn m_run_home(w: &mut MigWorld, s: &mut Search<MigWorld>, h: usize, ev: HomeEvent<u32>) {
        let actions =
            s.ck.cells
                .run(&mut w.homes[h].as_mut().unwrap().m, 0, 0, ev);
        for a in actions {
            match a {
                HomeAction::ChargeDirUpdate | HomeAction::Trace(_) => {}
                HomeAction::Wake(_) => s.fail(w, "home woke a local waiter (none modeled)"),
                HomeAction::SendFill {
                    to,
                    exclusive,
                    acks,
                    ..
                } => {
                    let fill = Msg::home_fill(exclusive, acks);
                    m_send(w, s, h, to, fill, Some(w.img[h]));
                }
                // Operands combine into the image; the no-lost-write theorem
                // tracks written values only.
                HomeAction::ApplyFlushData { .. } => {}
                HomeAction::Send {
                    to,
                    msg: msg @ (Msg::MigrateForward { .. } | Msg::HomeMoved { .. }),
                } => {
                    // A former home's forward and redirect are
                    // fire-and-forget: no liveness check, and one sent to a
                    // corpse is lost (the requester's timeout surfaces the
                    // unavailability).
                    if matches!(msg, Msg::MigrateForward { .. }) {
                        s.ck.forwards += 1;
                    }
                    if w.alive(to) {
                        w.links[h][to].push_back(MFrame::Coherence { msg, write: None });
                    }
                }
                HomeAction::Send {
                    to,
                    msg: Msg::MigrateAck { mig_epoch },
                } => {
                    // §15 persist-before-ack: a durable target may only ack
                    // the hand-off once its log holds the transferred image
                    // at (or past) the fence epoch.
                    if w.durable && w.log[TGT].0 < mig_epoch {
                        s.fail(
                            w,
                            "durable target acked the hand-off before logging the image",
                        );
                    }
                    m_send(w, s, h, to, Msg::MigrateAck { mig_epoch }, None);
                }
                HomeAction::Send { to, msg } => m_send(w, s, h, to, msg, None),
                HomeAction::SetHomeLocal { state, tag } => {
                    w.homes[h].as_mut().unwrap().dentry = (state, tag);
                }
                HomeAction::StartHomeDrain { target, tag } => {
                    let home = w.homes[h].as_mut().unwrap();
                    if home.draining {
                        s.fail(w, "overlapping home drains");
                    }
                    home.dentry = (target, tag);
                    home.draining = true;
                }
                HomeAction::ScheduleRetry { .. } => s.fail(w, "grace retry scheduled with grace=0"),
                HomeAction::SendGrant { .. } => s.fail(w, "a lock grant in a lock-free world"),
                HomeAction::PersistChunk { seq } => {
                    if !w.durable {
                        s.fail(w, "non-durable machine emitted PersistChunk");
                    }
                    if w.pending_persist[h].is_some() {
                        s.fail(w, "two persists pending at once");
                    }
                    w.pending_persist[h] = Some((seq, w.img[h]));
                }
                HomeAction::TransferChunk { to, mig_epoch } => {
                    if h != SRC || to != TGT {
                        s.fail(w, "transfer outside the modeled migration");
                    }
                    let data = Msg::MigrateData { mig_epoch };
                    m_send(w, s, SRC, TGT, data, Some(w.img[SRC]));
                }
                HomeAction::DepartChunk { to, mig_epoch } => {
                    if h != SRC || to != TGT {
                        s.fail(w, "departure outside the modeled migration");
                    }
                    w.homes[h].as_mut().unwrap().departed = true;
                    // HomeMoved broadcast (the runtime's broadcast_home_moved).
                    if w.r_alive {
                        w.links[h][REQ].push_back(home_moved(mig_epoch));
                    }
                }
                HomeAction::AdoptChunk { mig_epoch } => {
                    if h != TGT {
                        s.fail(w, "adoption outside the modeled migration");
                    }
                    let home = w.homes[h].as_mut().unwrap();
                    home.adopted = true;
                    home.dentry = (LocalState::Exclusive, NOTAG);
                    if w.r_alive {
                        w.links[h][REQ].push_back(home_moved(mig_epoch));
                    }
                }
                HomeAction::Count(c) => match c {
                    Counter::MigrationsOut => s.ck.migrations_out += 1,
                    Counter::MigrationsIn => s.ck.migrations_in += 1,
                    Counter::ParkedReplays => s.ck.parked_replays += 1,
                    _ => {}
                },
            }
        }
    }

    /// The stale-home redirect both ends of a committed migration
    /// broadcast to the requester.
    fn home_moved(epoch: u64) -> MFrame {
        MFrame::Coherence {
            msg: Msg::HomeMoved {
                new_home: TGT,
                epoch,
            },
            write: None,
        }
    }

    /// Send a directory message from home `from`, with the value its WRITE
    /// lands, if any. Sends to a node the home has already declared dead
    /// are recovery bugs (`forget_peer`'s contract).
    fn m_send(
        w: &mut MigWorld,
        s: &mut Search<MigWorld>,
        from: usize,
        to: usize,
        msg: Msg,
        write: Option<u64>,
    ) {
        if w.homes[from].as_ref().unwrap().knows_dead[to] {
            s.fail(
                w,
                &format!("home {from} sent {msg:?} to node {to} it knows is dead"),
            );
        }
        if w.alive(to) {
            w.links[from][to].push_back(MFrame::Coherence { msg, write });
        }
        // else: lost in flight; the kill's prefix truncation modeled it.
    }

    /// The survivor's migration phase for the kill-coverage tally. A
    /// migration runs through the ordinary transients: any transient
    /// serving it before the home drain is its revoke, the drain serving it
    /// is its drain, and `MigratingOut` is the wait for the target's ack.
    fn m_phase(m: &HomeMachine<u32>) -> &'static str {
        use darray::protocol::Transient;
        match (m.transient(), m.migrating_to()) {
            (Transient::MigratingOut { .. }, _) => "MigratingOut:AwaitAck",
            (Transient::HomeDrain, Some(_)) => "MigratingOut:Drain",
            (t, Some(_)) if !t.is_none() => "MigratingOut:Recall",
            (t, _) => t.name(),
        }
    }

    fn m_deliver_to_home(
        w: &mut MigWorld,
        s: &mut Search<MigWorld>,
        h: usize,
        from: usize,
        frame: MFrame,
    ) {
        let ev: HomeEvent<u32> = match frame {
            MFrame::Coherence { msg, write } => {
                // A writeback's or a transfer's RDMA WRITE lands in the
                // home image first.
                if let Some(val) = write {
                    w.img[h] = val;
                }
                match msg.deliver(from, true) {
                    Delivery::Home(ev) => ev,
                    Delivery::Cache(_) => s.fail(w, "home received a remote-only message"),
                }
            }
            MFrame::Down { dead } => {
                let home = w.homes[h].as_mut().unwrap();
                home.knows_dead[dead] = true;
                let epoch = home.view_epoch + 1;
                home.view_epoch = epoch;
                s.ck.kill_phases.insert((name(dead), m_phase(&home.m)));
                HomeEvent::PeerDown {
                    dead,
                    view_epoch: epoch,
                }
            }
        };
        m_run_home(w, s, h, ev);
    }

    fn m_deliver_to_req(w: &mut MigWorld, s: &mut Search<MigWorld>, from: usize, frame: MFrame) {
        let (msg, write) = match frame {
            MFrame::Coherence { msg, write } => (msg, write),
            MFrame::Down { dead } => {
                w.r_knows_dead[dead] = true;
                // A parked request may have been lost with the corpse (or
                // forwarded into it); the runtime's RPC timeout surfaces
                // the retry/unavailable path rather than hanging. This
                // world feeds no `HomeDown`: a request the old home
                // forwarded may still be answered by the new one.
                if matches!(w.r_app, App::Waiting(_)) {
                    w.r_app = App::Idle;
                }
                return;
            }
        };
        // The home-map update is the runtime's own, ahead of delivery, and
        // only a move that changed the map reaches the cache machine.
        if let Msg::HomeMoved { new_home, epoch } = msg {
            if epoch <= w.r_home_epoch {
                return;
            }
            w.r_home = new_home;
            w.r_home_epoch = epoch;
            // The redirect names a home this node already knows is
            // dead: the runtime's retry resolves against the updated
            // map, sees the peer down, and surfaces NodeUnavailable
            // instead of re-sending into the corpse.
            if matches!(w.r_app, App::Waiting(_)) && w.r_knows_dead[w.r_home] {
                w.r_app = App::Idle;
            }
            // An in-flight request is left to the copy the old home
            // forwarded. The runtime instead resets the fill and asks the
            // new home again, which can leave two requests for one miss at
            // the new home and deadlock its directory; this world does not
            // model that reset.
            if w.r_state.in_flight() {
                return;
            }
            let drain = if w.r_after.is_some() { "+drain" } else { "" };
            s.ck.moved_states
                .insert(format!("{}{drain}", w.r_state.name()));
        }
        match msg.deliver::<u32>(from, false) {
            Delivery::Cache(ev) => {
                // A fill's RDMA WRITE lands in the line it was sent for.
                if let (CacheEvent::FillDone { granted, .. }, Some(val)) = (ev, write) {
                    let filling = match granted {
                        LocalState::Shared => LocalState::FillingShared,
                        _ => LocalState::FillingExclusive,
                    };
                    if w.r_state == filling {
                        w.r_val = val;
                    }
                }
                m_run_req(w, s, ev);
            }
            Delivery::Home(ev) => s.fail(w, &format!("requester received {ev:?}")),
        }
    }

    /// Feed one event to the requester's cache machine and execute its
    /// actions, as the main world's `run_cache_event` does.
    fn m_run_req(w: &mut MigWorld, s: &mut Search<MigWorld>, first: CacheEvent) {
        let mut events = VecDeque::from([first]);
        while let Some(ev) = events.pop_front() {
            let view = CacheView {
                state: w.r_state,
                op_tag: w.r_op,
                line: w.r_line,
                draining: w.r_after.is_some(),
                home: w.r_home,
                acks: 0,
                granted: false,
            };
            let mut wake = false;
            for a in CacheMachine::on_event(&view, ev) {
                match a {
                    CacheAction::QueueWaiter => {}
                    CacheAction::WakeRequester | CacheAction::WakeAllWaiters => wake = true,
                    CacheAction::BeginDrain { target, tag, after } => {
                        if w.r_after.is_some() {
                            s.fail(w, "overlapping drains on the requester");
                        }
                        w.r_state = target;
                        w.r_op = tag;
                        w.r_after = Some(after);
                    }
                    CacheAction::AllocLine { kind } => {
                        events.push_back(CacheEvent::LineAllocated { line: LINE, kind });
                    }
                    CacheAction::SetLine { line } => w.r_line = line,
                    CacheAction::ReleaseLine { .. } => w.r_line = LINE_NONE,
                    CacheAction::SetTransient { state } => w.r_state = state,
                    CacheAction::Promote { state, tag } => {
                        w.r_state = state;
                        w.r_op = tag;
                    }
                    CacheAction::InitOperandBuffer { .. } => {}
                    CacheAction::Send { to, msg } => m_req_send(w, to, msg, None),
                    CacheAction::SendWriteback {
                        downgrade,
                        release,
                        direct,
                        ..
                    } => {
                        let (to, val) = (w.r_home, w.r_val);
                        let msg = Msg::WritebackNotice { downgrade, direct };
                        m_req_send(w, to, msg, Some(val));
                        if release {
                            w.r_line = LINE_NONE;
                        }
                    }
                    CacheAction::SendFlush {
                        op, release, keep, ..
                    } => {
                        s.ck.keep_flushes += usize::from(keep);
                        let msg = Msg::OperandFlush {
                            op,
                            data: vec![1],
                            keep,
                        };
                        m_req_send(w, w.r_home, msg, None);
                        if release {
                            w.r_line = LINE_NONE;
                        }
                    }
                    CacheAction::SendUpgrade { kind, .. } => {
                        m_req_send(w, w.r_home, Msg::request(kind, 0), None);
                    }
                    CacheAction::SendFill { .. } => s.fail(
                        w,
                        "a three-leg fill in a world that never recalls to a requester",
                    ),
                    CacheAction::SendAfterDrain { .. }
                    | CacheAction::SetAcks { .. }
                    | CacheAction::InstallGrant => {
                        s.fail(w, "a directed write in a world that never directs one")
                    }
                    CacheAction::PrefetchHint | CacheAction::Trace(_) | CacheAction::Count(_) => {}
                }
            }
            if wake {
                m_recheck(w, &mut events);
            }
        }
    }

    /// A send from the requester, with the value its WRITE lands, if any;
    /// one to a dead node is lost.
    fn m_req_send(w: &mut MigWorld, to: usize, msg: Msg, write: Option<u64>) {
        if w.alive(to) {
            w.links[REQ][to].push_back(MFrame::Coherence { msg, write });
        }
    }

    /// A wake fired on the requester: its parked access re-checks its
    /// rights, as the runtime's retry loop does. It completes (a write
    /// writes a fresh value), fails against a dead home, or asks again.
    fn m_recheck(w: &mut MigWorld, events: &mut VecDeque<CacheEvent>) {
        let App::Waiting(kind) = w.r_app else {
            return;
        };
        if w.r_state.permits(kind, || w.r_op) {
            if kind == Kind::Write {
                w.r_val = w.next_val;
                w.next_val += 1;
            }
            w.r_app = App::Idle;
        } else if w.r_knows_dead[w.r_home] {
            w.r_app = App::Idle;
        } else {
            events.push_back(CacheEvent::Request {
                kind,
                home_down: false,
                drain_pending: w.r_after.is_some(),
            });
        }
    }

    /// The requester evicted Operated lines and kept their rights, and yet
    /// every `HomeMoved` it consumed found it Invalid and not draining: the
    /// migration's recall takes idle rights (an empty flush) and the
    /// eviction drain's flush before the chunk moves.
    fn fence_revokes_idle_rights(ck: &MCk) {
        assert!(ck.keep_flushes > 0, "no Operated line was evicted to idle");
        assert_eq!(
            ck.moved_states,
            BTreeSet::from(["Invalid".to_string()]),
            "HomeMoved found the requester holding rights"
        );
    }

    /// Non-durable search: one migration, a requester issuing two
    /// Read/Write/Operate requests plus one eviction, and one kill of
    /// source, target, or requester injected at every point (with every
    /// surviving message prefix). Proves single authority in every
    /// reachable state and covers kills in every non-persist migration
    /// phase.
    #[test]
    fn migration_model_single_authority() {
        let s = explore("migration", MigWorld::new(2, 1, 1, false));
        assert_eq!(s.seen.len(), 14_687);
        fence_revokes_idle_rights(&s.ck);

        assert!(
            s.ck.completed > 0,
            "no interleaving committed the migration"
        );
        assert!(
            s.ck.aborted > 0,
            "no target death was ever absorbed by abort"
        );
        assert!(s.ck.migrations_out > 0 && s.ck.migrations_in > 0);
        assert!(
            s.ck.parked_replays > 0,
            "no request was ever parked behind the fence and replayed"
        );
        assert!(
            s.ck.forwards > 0,
            "no stale-home request was ever forwarded"
        );
        // Kills must land in every migration phase of the survivor that
        // observes them: the source sees target/requester deaths in every
        // outbound phase, the target sees source deaths while awaiting the
        // commit.
        for phase in [
            "MigratingOut:Recall",
            "MigratingOut:Drain",
            "MigratingOut:AwaitAck",
        ] {
            assert!(
                s.ck.kill_phases.contains(&("tgt", phase)),
                "no target kill consumed during {phase}: {:?}",
                s.ck.kill_phases
            );
        }
        assert!(
            s.ck.kill_phases.contains(&("req", "MigratingOut:Recall")),
            "no requester kill consumed during the migration recall: {:?}",
            s.ck.kill_phases
        );
        assert!(
            s.ck.kill_phases
                .contains(&("src", "MigratingIn:AwaitCommit")),
            "no source kill consumed while the target awaited the commit: {:?}",
            s.ck.kill_phases
        );
    }

    /// Durable search: the same migration with both logs live, proving the
    /// no-acked-write-lost theorem (best-epoch-wins recovery always holds
    /// the newest acknowledged value) and covering source kills during the
    /// target's persist phase.
    #[test]
    fn migration_model_durable_no_lost_write() {
        let s = explore("migration-durable", MigWorld::new(2, 1, 1, true));
        assert_eq!(s.seen.len(), 22_280);
        fence_revokes_idle_rights(&s.ck);

        assert!(
            s.ck.completed > 0,
            "no interleaving committed the migration"
        );
        assert!(
            s.ck.kill_phases.contains(&("src", "MigratingIn:Persist")),
            "no source kill consumed during the target's adopt-persist: {:?}",
            s.ck.kill_phases
        );
        assert!(
            s.ck.kill_phases
                .contains(&("src", "MigratingIn:AwaitCommit")),
            "no source kill consumed while the target awaited the commit: {:?}",
            s.ck.kill_phases
        );
        for phase in [
            "MigratingOut:Recall",
            "MigratingOut:Drain",
            "MigratingOut:AwaitAck",
        ] {
            assert!(
                s.ck.kill_phases.contains(&("tgt", phase)),
                "no target kill consumed during {phase}: {:?}",
                s.ck.kill_phases
            );
        }
    }
}

// ===========================================================================
// Engine self-test
// ===========================================================================

/// The engine itself, on a toy world: a counter that steps by one
/// (internal) or by two (external) up to `top`, with a safety violation
/// planted at `bad`.
mod engine_self_test {
    use super::*;

    #[derive(Debug, Clone, Hash)]
    struct Counter {
        n: u8,
        top: u8,
        bad: u8,
    }

    impl Model for Counter {
        type Tr = u8;
        type Ck = ();

        fn internal(&self) -> Vec<u8> {
            (self.n < self.top).then_some(1).into_iter().collect()
        }

        fn external(&self) -> Vec<u8> {
            (self.n + 2 <= self.top).then_some(2).into_iter().collect()
        }

        fn label(&self, step: u8) -> String {
            format!("{} -> {}", self.n, self.n + step)
        }

        fn apply(&mut self, _: &mut Search<Self>, step: u8) {
            self.n += step;
        }

        fn check_safety(&self, s: &mut Search<Self>) {
            if self.n == self.bad {
                s.fail(self, "planted violation");
            }
        }

        fn check_quiescence(&self, s: &mut Search<Self>) {
            if self.n != self.top {
                s.fail(self, "quiescent below the top");
            }
        }
    }

    /// Search a counter from 0 without writing a report file, returning
    /// its state and quiescent counts, or its panic message.
    fn run(top: u8, bad: u8) -> Result<(usize, usize), String> {
        std::panic::catch_unwind(move || {
            let mut s = Search::new(None);
            s.dfs(&Counter { n: 0, top, bad }, 0);
            (s.seen.len(), s.quiescent)
        })
        .map_err(|e| *e.downcast::<String>().unwrap())
    }

    #[test]
    fn clean_world_is_explored_exactly() {
        assert_eq!(run(10, 11), Ok((11, 1)));
    }

    #[test]
    fn planted_violation_is_reported_with_its_trace() {
        let msg = run(10, 4).unwrap_err();
        assert!(msg.starts_with("model check failed: planted violation\n"));
        let steps = "counterexample trace (4 steps):\n    1. 0 -> 1\n    2. 1 -> 2\n    \
                     3. 2 -> 3\n    4. 3 -> 4\nfinal world:\n";
        assert!(msg.contains(steps), "{msg}");
    }

    #[test]
    fn reaching_the_depth_bound_fails() {
        let msg = run(200, 255).unwrap_err();
        assert!(msg.starts_with("model check failed: depth bound reached"));
    }
}
