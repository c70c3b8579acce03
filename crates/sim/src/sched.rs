//! The single-token cooperative scheduler.
//!
//! Exactly one simulated thread executes at any instant. When the running
//! thread blocks, yields, or finishes, it enters [`SimInner::reschedule`],
//! which drains every event due before the earliest runnable thread and then
//! hands the token to that thread (possibly itself).
//!
//! Every simulated thread but the root is a fiber on the OS thread that
//! called [`Sim::run`], and handing over the token is a stack switch
//! ([`fiber::switch`]). Only one thread ever executes, so simulated threads
//! may freely share state; the atomics used by the DArray fast path are
//! exercised for their *semantics*, not because `dsim` requires them.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::fiber::{self, Context, Stack};
use crate::single_writer::SingleWriterU64;
use crate::time::VTime;

/// Identifier of a simulated thread. The root thread is always 0.
pub type ThreadId = usize;

/// Scheduler configuration.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Maximum virtual run-ahead (ns) a thread accumulates via
    /// [`Ctx::charge`] before voluntarily yielding. Bounds the clock skew
    /// of the lax-synchronization execution model.
    pub quantum: VTime,
    /// Hard upper bound on virtual time; exceeding it poisons the
    /// simulation (guards against accidental infinite loops in tests).
    pub max_vtime: VTime,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            quantum: 50_000, // 50 µs
            max_vtime: u64::MAX,
        }
    }
}

/// Counters describing a finished (or running) simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Number of token handoffs between simulated threads.
    pub switches: u64,
    /// Number of events processed from the event queue.
    pub events: u64,
    /// Total simulated threads ever spawned (including the root).
    pub spawned: u64,
    /// Threads still live when the root closure returned (abandoned). They
    /// never run again, and `Sim::run` unmaps their stacks as it returns.
    pub abandoned: u64,
    /// Fiber stacks mapped. A finished fiber's stack is reused by the next
    /// spawn, so this is the peak number of spawned threads live at once.
    pub stacks: u64,
}

/// A discrete event: at `time`, perform `action`. Ordered by `(time, seq)`
/// so simultaneous events process in creation order (deterministic).
pub(crate) struct Event {
    pub(crate) time: VTime,
    pub(crate) seq: u64,
    pub(crate) action: Action,
}

pub(crate) enum Action {
    /// Make a blocked thread runnable at the event time.
    Wake(ThreadId),
    /// Arbitrary scheduler-context action (message delivery, RDMA copy...).
    Call(Box<dyn FnOnce(&mut SchedState) + Send>),
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (time, seq) pops
        // first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TState {
    Running,
    Runnable,
    Blocked,
    Done,
}

pub(crate) struct Tcb {
    /// Virtual clock of the thread, shared with its `Ctx` so the fast path
    /// (`charge`) is an unlocked add without taking the scheduler lock. The
    /// thread and the scheduler waking it both run on the simulation's OS
    /// thread, which is the clock's one writer.
    pub(crate) clock: Arc<SingleWriterU64>,
    pub(crate) state: TState,
    /// Where the thread's registers were saved when it last gave up the
    /// token (or its start frame, before its first dispatch).
    context: Context,
    /// The fiber's stack while it lives; the root runs on the caller's.
    stack: Option<Stack>,
    pub(crate) name: String,
}

/// Candidate entry in the runnable min-heap.
struct RunKey(VTime, ThreadId);

impl PartialEq for RunKey {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0 && self.1 == other.1
    }
}
impl Eq for RunKey {}
impl PartialOrd for RunKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for RunKey {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.0, other.1).cmp(&(self.0, self.1))
    }
}

/// All mutable scheduler state, guarded by `SimInner::sched`.
pub struct SchedState {
    events: BinaryHeap<Event>,
    runnable: BinaryHeap<RunKey>,
    pub(crate) tcbs: Vec<Tcb>,
    pub(crate) live: usize,
    seq: u64,
    pub(crate) poisoned: Option<String>,
    pub(crate) stats: SimStats,
    max_vtime: VTime,
    /// Stacks of finished fibers, for the next spawns to reuse.
    free_stacks: Vec<Stack>,
}

impl SchedState {
    /// Make a blocked thread runnable no earlier than `at`. No-op if the
    /// thread is not blocked (defensive; the token discipline should make
    /// that impossible).
    pub(crate) fn wake(&mut self, tid: ThreadId, at: VTime) {
        let tcb = &mut self.tcbs[tid];
        if tcb.state != TState::Blocked {
            return;
        }
        tcb.clock.raise(at);
        tcb.state = TState::Runnable;
        let clk = tcb.clock.get();
        self.runnable.push(RunKey(clk, tid));
    }

    /// Schedule `action` to happen at absolute virtual time `time`.
    pub(crate) fn push_event(&mut self, time: VTime, action: Action) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Event { time, seq, action });
    }

    fn spawn_tcb(&mut self, name: String, clock: VTime, state: TState) -> ThreadId {
        let tid = self.tcbs.len();
        self.tcbs.push(Tcb {
            clock: Arc::new(SingleWriterU64::new(clock)),
            state,
            context: Context::default(),
            stack: None,
            name,
        });
        self.live += 1;
        self.stats.spawned += 1;
        tid
    }

    /// Peek the earliest valid runnable thread, discarding stale entries.
    fn peek_runnable(&mut self) -> Option<(VTime, ThreadId)> {
        while let Some(RunKey(t, tid)) = self.runnable.peek().map(|k| RunKey(k.0, k.1)) {
            if self.tcbs[tid].state == TState::Runnable {
                return Some((t, tid));
            }
            self.runnable.pop();
        }
        None
    }

    /// Transition the *currently running* thread to Runnable (cooperative
    /// yield) and queue it for re-dispatch at its current clock.
    pub(crate) fn make_runnable_self(&mut self, tid: ThreadId) {
        let tcb = &mut self.tcbs[tid];
        debug_assert_eq!(tcb.state, TState::Running);
        tcb.state = TState::Runnable;
        let clk = tcb.clock.get();
        self.runnable.push(RunKey(clk, tid));
    }

    /// Transition the *currently running* thread to Blocked. The caller must
    /// already have registered itself with whatever will wake it.
    pub(crate) fn set_blocked(&mut self, tid: ThreadId) {
        debug_assert_eq!(self.tcbs[tid].state, TState::Running);
        self.tcbs[tid].state = TState::Blocked;
    }

    /// Spawn a new simulated thread in the Runnable state.
    pub(crate) fn spawn_runnable(&mut self, name: String, clock: VTime) -> ThreadId {
        let tid = self.spawn_tcb(name, clock, TState::Runnable);
        self.runnable.push(RunKey(clock, tid));
        tid
    }

    pub(crate) fn clock_handle(&self, tid: ThreadId) -> Arc<SingleWriterU64> {
        self.tcbs[tid].clock.clone()
    }

    /// The two ends of a token handoff from `from` to `to`, which the
    /// caller has just marked Running: where the switch saves `from`'s
    /// registers, and the context it resumes.
    ///
    /// Once the scheduler lock is dropped they meet [`fiber::switch`]'s
    /// contract. `to` holds the token now, so it is resumed exactly once, at
    /// the context it saved when it last gave up the token (or its start
    /// frame), and its stack stays mapped until `Sim::run` ends. `save`
    /// points into `from`'s TCB and stays valid up to the switch's write:
    /// `tcbs` only grows in `spawn`, and nothing else runs on this OS thread
    /// in between.
    fn handoff(&mut self, from: ThreadId, to: ThreadId) -> (*mut Context, Context) {
        (&raw mut self.tcbs[from].context, self.tcbs[to].context)
    }

    pub(crate) fn stats_snapshot(&self) -> SimStats {
        self.stats.clone()
    }

    fn blocked_dump(&self) -> String {
        let mut out = String::new();
        for (tid, tcb) in self.tcbs.iter().enumerate() {
            if tcb.state == TState::Blocked || tcb.state == TState::Runnable {
                out.push_str(&format!(
                    "\n  thread {} ({:?}) state={:?} clock={}",
                    tid,
                    tcb.name,
                    tcb.state,
                    tcb.clock.get()
                ));
            }
        }
        out
    }
}

enum NextStep {
    /// Hand the token to this thread.
    Thread(ThreadId),
    /// No runnable thread and no event: the simulation is stuck.
    Idle,
}

pub(crate) struct SimInner {
    pub(crate) cfg: SimConfig,
    pub(crate) sched: Mutex<SchedState>,
    /// First panic message from any simulated thread.
    pub(crate) panic_msg: Mutex<Option<String>>,
}

impl SimInner {
    /// Drain due events, then pick the next thread. Must be called with the
    /// scheduler locked; returns with it still locked.
    fn advance(s: &mut SchedState) -> NextStep {
        loop {
            let cand = s.peek_runnable();
            let evt_due = match (s.events.peek().map(|e| e.time), cand) {
                (Some(et), Some((ct, _))) => et <= ct,
                (Some(_), None) => true,
                (None, _) => false,
            };
            if evt_due {
                let evt = s.events.pop().expect("peeked event");
                s.stats.events += 1;
                if evt.time > s.max_vtime && s.poisoned.is_none() {
                    s.poisoned = Some(format!(
                        "virtual time limit exceeded: event at {} > max_vtime {}",
                        evt.time, s.max_vtime
                    ));
                }
                match evt.action {
                    Action::Wake(tid) => s.wake(tid, evt.time),
                    Action::Call(f) => f(s),
                }
                continue;
            }
            return match cand {
                Some((_, tid)) => NextStep::Thread(tid),
                None => NextStep::Idle,
            };
        }
    }

    /// Drain due events and give the token to the next thread: mark it
    /// Running and return it (possibly `self_tid` itself). When nothing can
    /// run, the simulation is stuck: see [`Self::handle_idle`].
    fn next_thread(&self, s: &mut SchedState, self_tid: ThreadId) -> ThreadId {
        match Self::advance(s) {
            NextStep::Thread(tid) => {
                s.runnable.pop();
                s.tcbs[tid].state = TState::Running;
                if tid != self_tid {
                    s.stats.switches += 1;
                }
                tid
            }
            NextStep::Idle => self.handle_idle(s, self_tid),
        }
    }

    /// Give up the token. The caller must already have set its own TCB state
    /// (Runnable to keep competing, Blocked to wait). Returns once this
    /// thread holds the token again.
    pub(crate) fn reschedule(&self, self_tid: ThreadId) {
        let mut s = self.sched.lock();
        let next = self.next_thread(&mut s, self_tid);
        if next == self_tid {
            return;
        }
        let (save, resume) = s.handoff(self_tid, next);
        drop(s);
        // SAFETY: the ends come from `handoff` and the lock is dropped.
        unsafe { fiber::switch(save, resume) };
    }

    /// Mark the calling fiber finished, put its stack on the free list, and
    /// pick the thread to hand the token to for good. Returns the ends of
    /// the fiber's last switch (see [`SchedState::handoff`]).
    fn retire(&self, self_tid: ThreadId) -> (*mut Context, Context) {
        let mut s = self.sched.lock();
        s.tcbs[self_tid].state = TState::Done;
        s.live -= 1;
        let stack = s.tcbs[self_tid]
            .stack
            .take()
            .expect("a fiber owns its stack");
        s.free_stacks.push(stack);
        let next = self.next_thread(&mut s, self_tid);
        s.handoff(self_tid, next)
    }

    /// The simulation is stuck: no runnable thread, no pending event, yet
    /// live threads remain. The root panics at once; any other thread
    /// poisons the simulation and hands the token to the root (which must
    /// be the one waiting), so the failure surfaces as a panic in the
    /// caller of [`Sim::run`]. The stuck thread is never resumed.
    fn handle_idle(&self, s: &mut SchedState, self_tid: ThreadId) -> ThreadId {
        let msg = self.panic_msg.lock().clone().unwrap_or_else(|| {
            format!(
                "simulation deadlock: {} live thread(s), none runnable, no events pending{}",
                s.live,
                s.blocked_dump()
            )
        });
        if self_tid == 0 {
            panic!("{msg}");
        }
        s.poisoned = Some(msg);
        debug_assert_eq!(s.tcbs[0].state, TState::Blocked);
        s.tcbs[0].state = TState::Running;
        0
    }

    /// Panic in the current simulated thread if the simulation was poisoned.
    pub(crate) fn check_poison(&self, _self_tid: ThreadId) {
        let msg = self.sched.lock().poisoned.clone();
        if let Some(m) = msg {
            panic!("{m}");
        }
    }

    /// Record that thread `tid` panicked with `msg`; the first panic wins.
    /// The message names the thread, since every fiber shares the OS thread
    /// (and so the name) the host's panic hook reports.
    pub(crate) fn record_panic(&self, tid: ThreadId, msg: &str) {
        let name = self.sched.lock().tcbs[tid].name.clone();
        let mut g = self.panic_msg.lock();
        if g.is_none() {
            *g = Some(format!("simulated thread '{name}' panicked: {msg}"));
        }
    }

    /// Create a runnable fiber named `name`, its clock at `clock`, whose
    /// first dispatch runs `body` on a stack of its own. The stack is the
    /// most recently freed one, or a new mapping when none is free.
    pub(crate) fn spawn(
        self: &Arc<Self>,
        name: &str,
        clock: VTime,
        body: Box<dyn FnOnce(Ctx)>,
    ) -> ThreadId {
        let mut s = self.sched.lock();
        let tid = s.spawn_runnable(name.to_string(), clock);
        let mut stack = s.free_stacks.pop().unwrap_or_else(|| {
            s.stats.stacks += 1;
            Stack::new()
        });
        let start = Box::new(FiberStart {
            inner: self.clone(),
            tid,
            body,
        });
        s.tcbs[tid].context = stack.start(fiber_main, Box::into_raw(start).cast());
        s.tcbs[tid].stack = Some(stack);
        tid
    }
}

/// What a fiber's first frame needs, handed over through [`Stack::start`]
/// as a raw `Box`.
struct FiberStart {
    inner: Arc<SimInner>,
    tid: ThreadId,
    body: Box<dyn FnOnce(Ctx)>,
}

/// The first frame of every spawned fiber: run its body, then retire it.
extern "C" fn fiber_main(start: *mut u8) -> ! {
    // SAFETY: `SimInner::spawn` made `start` with `Box::into_raw` for this
    // fiber alone, and a fiber starts once.
    let FiberStart { inner, tid, body } = *unsafe { Box::from_raw(start.cast::<FiberStart>()) };
    let sim = Arc::as_ptr(&inner);
    body(Ctx::new_child(inner, tid));
    // The body has consumed its `Ctx` and with it this fiber's `Arc`:
    // nothing left on this stack owns anything, so never unwinding it after
    // the switch below leaks nothing.
    // SAFETY: `Sim::run` holds an `Arc<SimInner>` until the root returns,
    // and the root cannot return while this fiber holds the token.
    let (save, resume) = unsafe { &*sim }.retire(tid);
    // SAFETY: the ends come from `handoff` and `retire` dropped the lock.
    // Switching from the stack `retire` just freed is sound: its next user
    // is a later spawn, which only a thread resumed by this switch can make.
    unsafe { fiber::switch(save, resume) };
    unreachable!("a retired fiber is resumed");
}

/// Unmaps every fiber stack of a run when `Sim::run` returns or unwinds,
/// the stacks of blocked and abandoned fibers included. Nothing can resume
/// those fibers afterwards: wait lists and events hold `ThreadId`s, never
/// pointers into a stack.
struct StackReaper<'a>(&'a SimInner);

impl Drop for StackReaper<'_> {
    fn drop(&mut self) {
        let mut s = self.0.sched.lock();
        s.free_stacks.clear();
        for tcb in &mut s.tcbs {
            tcb.stack = None;
        }
    }
}

/// A simulation instance. Construct with [`Sim::new`] and start it with
/// [`Sim::run`], which turns the calling OS thread into simulated thread 0
/// (the *root*) and runs every thread spawned from it as a fiber on that OS
/// thread. The simulation ends when the root closure returns; any
/// simulated threads still live at that point are abandoned (reported in
/// [`SimStats::abandoned`]).
pub struct Sim {
    cfg: SimConfig,
}

impl Sim {
    /// Create a simulation with the given configuration.
    pub fn new(cfg: SimConfig) -> Self {
        Self { cfg }
    }

    /// Run `f` as the root simulated thread and return its result.
    ///
    /// Panics if any simulated thread panicked or the simulation
    /// deadlocked.
    pub fn run<F, R>(self, f: F) -> R
    where
        F: FnOnce(&mut Ctx) -> R,
    {
        let max_vtime = self.cfg.max_vtime;
        let inner = Arc::new(SimInner {
            cfg: self.cfg,
            sched: Mutex::new(SchedState {
                events: BinaryHeap::new(),
                runnable: BinaryHeap::new(),
                tcbs: Vec::new(),
                live: 0,
                seq: 0,
                poisoned: None,
                stats: SimStats::default(),
                max_vtime,
                free_stacks: Vec::new(),
            }),
            panic_msg: Mutex::new(None),
        });
        {
            let mut s = inner.sched.lock();
            let tid = s.spawn_tcb("root".to_string(), 0, TState::Running);
            debug_assert_eq!(tid, 0);
        }
        let _reaper = StackReaper(&inner);
        let mut ctx = Ctx::new_root(inner.clone());
        let out = f(&mut ctx);
        {
            let mut s = inner.sched.lock();
            s.tcbs[0].state = TState::Done;
            s.live -= 1;
            s.stats.abandoned = s.live as u64;
        }
        if let Some(msg) = inner.panic_msg.lock().take() {
            panic!("{msg}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ordering_is_time_then_seq() {
        let a = Event {
            time: 5,
            seq: 1,
            action: Action::Wake(0),
        };
        let b = Event {
            time: 5,
            seq: 2,
            action: Action::Wake(0),
        };
        let c = Event {
            time: 3,
            seq: 9,
            action: Action::Wake(0),
        };
        let mut h = BinaryHeap::new();
        h.push(a);
        h.push(b);
        h.push(c);
        let order: Vec<(VTime, u64)> =
            std::iter::from_fn(|| h.pop().map(|e| (e.time, e.seq))).collect();
        assert_eq!(order, vec![(3, 9), (5, 1), (5, 2)]);
    }

    #[test]
    fn root_runs_and_returns() {
        let r = Sim::new(SimConfig::default()).run(|ctx| {
            ctx.charge(123);
            assert_eq!(ctx.now(), 123);
            7
        });
        assert_eq!(r, 7);
    }

    #[test]
    fn sleep_advances_virtual_time() {
        Sim::new(SimConfig::default()).run(|ctx| {
            ctx.sleep(10_000);
            assert_eq!(ctx.now(), 10_000);
            ctx.sleep(5);
            assert_eq!(ctx.now(), 10_005);
        });
    }

    #[test]
    fn spawned_thread_inherits_clock_and_join_syncs() {
        Sim::new(SimConfig::default()).run(|ctx| {
            ctx.charge(50);
            let h = ctx.spawn("w", |c| {
                assert_eq!(c.now(), 50);
                c.charge(1_000);
            });
            h.join(ctx);
            assert_eq!(ctx.now(), 1_050);
        });
    }

    #[test]
    fn threads_interleave_by_virtual_clock() {
        // Two workers record the order of their steps; the lower-clock
        // thread must always run first.
        use std::sync::Mutex as StdMutex;
        let log = Arc::new(StdMutex::new(Vec::new()));
        let l1 = log.clone();
        let l2 = log.clone();
        // quantum = 1 forces a yield after every charge, so execution order
        // tracks virtual-time order exactly (no run-ahead laxity).
        let cfg = SimConfig {
            quantum: 1,
            ..Default::default()
        };
        Sim::new(cfg).run(move |ctx| {
            let a = ctx.spawn("a", move |c| {
                for i in 0..3 {
                    c.charge(100);
                    l1.lock().unwrap().push(("a", i, c.now()));
                    c.yield_now();
                }
            });
            let b = ctx.spawn("b", move |c| {
                for i in 0..3 {
                    c.charge(40);
                    l2.lock().unwrap().push(("b", i, c.now()));
                    c.yield_now();
                }
            });
            a.join(ctx);
            b.join(ctx);
        });
        let log = log.lock().unwrap().clone();
        // Events must be sorted by virtual time.
        let times: Vec<u64> = log.iter().map(|e| e.2).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(times, sorted, "log: {log:?}");
    }

    #[test]
    fn determinism_two_identical_runs() {
        fn run_once() -> (u64, Vec<(String, u64)>) {
            use std::sync::Mutex as StdMutex;
            let log = Arc::new(StdMutex::new(Vec::new()));
            let out = log.clone();
            let end = Sim::new(SimConfig::default()).run(move |ctx| {
                let mut handles = Vec::new();
                for t in 0..4u64 {
                    let l = log.clone();
                    handles.push(ctx.spawn(&format!("w{t}"), move |c| {
                        for i in 0..5 {
                            c.charge(37 * (t + 1) + i);
                            l.lock().unwrap().push((format!("w{t}"), c.now()));
                            c.yield_now();
                        }
                    }));
                }
                for h in handles {
                    h.join(ctx);
                }
                ctx.now()
            });
            let v = out.lock().unwrap().clone();
            (end, v)
        }
        assert_eq!(run_once(), run_once());
    }

    #[test]
    #[should_panic(expected = "deadlock")]
    fn deadlock_is_detected_in_root() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: crate::Mailbox<u8> = crate::Mailbox::new("never");
            mb.recv(ctx); // nobody ever sends
        });
    }

    #[test]
    #[should_panic(expected = "simulated thread 'bad' panicked: boom")]
    fn child_panic_propagates_to_root() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let h = ctx.spawn("bad", |_c| panic!("boom"));
            h.join(ctx);
        });
    }

    #[test]
    fn quantum_forces_yield_but_preserves_clock() {
        let cfg = SimConfig {
            quantum: 1_000,
            ..Default::default()
        };
        Sim::new(cfg).run(|ctx| {
            for _ in 0..100 {
                ctx.charge(100); // will cross the quantum several times
            }
            assert_eq!(ctx.now(), 10_000);
        });
    }

    #[test]
    fn many_threads_run_to_completion() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mut handles = Vec::new();
            for i in 0..32 {
                handles.push(ctx.spawn(&format!("t{i}"), move |c| {
                    c.charge(10 * (i as u64 + 1));
                    c.yield_now();
                    c.charge(5);
                }));
            }
            for h in handles {
                h.join(ctx);
            }
            assert_eq!(ctx.stats().spawned, 33);
        });
    }
}
