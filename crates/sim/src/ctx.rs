//! Per-thread execution context: the handle simulated code uses to charge
//! virtual time, block, sleep, and spawn further simulated threads.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AO};
use std::sync::Arc;

use crate::sched::{Action, SimInner, SimStats, ThreadId};
use crate::single_writer::SingleWriterU64;
use crate::sync::WaitCell;
use crate::time::VTime;

/// Execution context of one simulated thread. `Ctx` is handed to the
/// thread's closure and is deliberately `!Sync`: each simulated thread owns
/// exactly one.
pub struct Ctx {
    pub(crate) inner: Arc<SimInner>,
    pub(crate) tid: ThreadId,
    clock: Arc<SingleWriterU64>,
    runahead: VTime,
    quantum: VTime,
}

impl Ctx {
    pub(crate) fn new_root(inner: Arc<SimInner>) -> Self {
        let clock = inner.sched.lock().clock_handle(0);
        let quantum = inner.cfg.quantum;
        Self {
            inner,
            tid: 0,
            clock,
            runahead: 0,
            quantum,
        }
    }

    pub(crate) fn new_child(inner: Arc<SimInner>, tid: ThreadId) -> Self {
        let clock = inner.sched.lock().clock_handle(tid);
        let quantum = inner.cfg.quantum;
        Self {
            inner,
            tid,
            clock,
            runahead: 0,
            quantum,
        }
    }

    /// This thread's identifier.
    #[inline]
    pub fn tid(&self) -> ThreadId {
        self.tid
    }

    /// Current virtual time of this thread, in nanoseconds.
    #[inline]
    pub fn now(&self) -> VTime {
        self.clock.get()
    }

    /// Account `ns` nanoseconds of virtual work. This is the hot path of the
    /// whole simulator: an unlocked add plus a branch. Crossing the run-ahead
    /// quantum triggers a cooperative yield so other (virtually earlier)
    /// threads and events catch up.
    #[inline]
    pub fn charge(&mut self, ns: VTime) {
        self.clock.add(ns);
        self.runahead += ns;
        if self.runahead >= self.quantum {
            self.runahead = 0;
            self.yield_now();
        }
    }

    /// Raise this thread's clock to at least `t` (used when consuming a
    /// message delivered at `t`).
    #[inline]
    pub(crate) fn bump(&mut self, t: VTime) {
        self.clock.raise(t);
    }

    /// Cooperatively yield the token; resumes once this thread again has the
    /// smallest virtual clock.
    pub fn yield_now(&mut self) {
        {
            let mut s = self.inner.sched.lock();
            s.make_runnable_self(self.tid);
        }
        self.inner.reschedule(self.tid);
        self.inner.check_poison(self.tid);
    }

    /// Charge `ns` and yield: the building block for simulated spin loops
    /// (e.g. waiting on `delay_flag` in the DArray fast path).
    #[inline]
    pub fn spin_hint(&mut self, ns: VTime) {
        self.clock.add(ns);
        self.yield_now();
    }

    /// Sleep until virtual time `deadline`.
    pub fn sleep_until(&mut self, deadline: VTime) {
        if deadline <= self.now() {
            return;
        }
        {
            let mut s = self.inner.sched.lock();
            s.push_event(deadline, Action::Wake(self.tid));
            s.set_blocked(self.tid);
        }
        self.inner.reschedule(self.tid);
        self.inner.check_poison(self.tid);
    }

    /// Sleep for `ns` nanoseconds of virtual time.
    pub fn sleep(&mut self, ns: VTime) {
        let d = self.now() + ns;
        self.sleep_until(d);
    }

    /// Block the calling thread. The caller must have registered itself with
    /// whatever will eventually call `SchedState::wake` for it (mailbox,
    /// wait cell, barrier). Returns once woken; the clock has been advanced
    /// to the wake time by the waker.
    pub(crate) fn block(&mut self) {
        {
            let mut s = self.inner.sched.lock();
            s.set_blocked(self.tid);
        }
        self.inner.reschedule(self.tid);
        self.inner.check_poison(self.tid);
    }

    /// Schedule `action` at absolute virtual time `at` (scheduler-context
    /// closure; used by the fabric to deliver messages and perform one-sided
    /// memory copies).
    pub(crate) fn schedule(
        &self,
        at: VTime,
        action: Box<dyn FnOnce(&mut crate::sched::SchedState) + Send>,
    ) {
        let mut s = self.inner.sched.lock();
        s.push_event(at, Action::Call(action));
    }

    /// Schedule an arbitrary side effect at absolute virtual time `at`
    /// (e.g. the fabric's one-sided RDMA memory copies). Side effects
    /// scheduled at equal times run in scheduling order, and always before
    /// any message delivered at a later time.
    pub fn schedule_fn<F>(&self, at: VTime, f: F)
    where
        F: FnOnce() + Send + 'static,
    {
        self.schedule(at, Box::new(move |_s| f()));
    }

    /// Spawn a simulated thread named `name` whose clock starts at the
    /// spawner's current virtual time. It runs as a fiber on this OS thread.
    pub fn spawn<F>(&mut self, name: &str, f: F) -> JoinHandle
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        let done = Arc::new(AtomicBool::new(false));
        let end_time = Arc::new(AtomicU64::new(0));
        let cell = WaitCell::new();
        let h_done = done.clone();
        let h_end = end_time.clone();
        let h_cell = cell.clone();
        let body = move |mut ctx: Ctx| {
            if let Err(p) = catch_unwind(AssertUnwindSafe(|| f(&mut ctx))) {
                ctx.inner.record_panic(ctx.tid, &panic_message(&*p));
            }
            h_end.store(ctx.now(), AO::Release);
            h_done.store(true, AO::Release);
            h_cell.notify(&mut ctx);
        };
        self.inner.spawn(name, self.now(), Box::new(body));
        JoinHandle {
            cell,
            done,
            end_time,
        }
    }

    /// Snapshot of scheduler counters.
    pub fn stats(&self) -> SimStats {
        self.inner.sched.lock().stats_snapshot()
    }

    /// The configured run-ahead quantum.
    pub fn quantum(&self) -> VTime {
        self.quantum
    }
}

fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "<non-string panic payload>".to_string()
    }
}

/// Handle for joining a simulated thread. Joining advances the joiner's
/// clock to the joined thread's final virtual time.
pub struct JoinHandle {
    cell: WaitCell,
    done: Arc<AtomicBool>,
    end_time: Arc<AtomicU64>,
}

impl JoinHandle {
    /// Block until the thread finishes.
    pub fn join(self, ctx: &mut Ctx) {
        while !self.done.load(AO::Acquire) {
            self.cell.wait(ctx);
        }
        ctx.bump(self.end_time.load(AO::Acquire));
    }
}

#[cfg(test)]
mod tests {
    use crate::{Sim, SimConfig};

    #[test]
    fn spin_hint_makes_progress() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let flag = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
            let f2 = flag.clone();
            let h = ctx.spawn("setter", move |c| {
                c.sleep(5_000);
                f2.store(true, std::sync::atomic::Ordering::Release);
            });
            while !flag.load(std::sync::atomic::Ordering::Acquire) {
                ctx.spin_hint(100);
            }
            assert!(ctx.now() >= 5_000);
            h.join(ctx);
        });
    }

    #[test]
    fn join_after_completion_still_syncs_clock() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let h = ctx.spawn("fast", |c| c.charge(2_000));
            // Let the child finish first.
            ctx.sleep(10_000);
            h.join(ctx);
            assert_eq!(ctx.now(), 10_000); // joiner was already later
        });
    }

    #[test]
    fn nested_spawn_works() {
        let v = Sim::new(SimConfig::default()).run(|ctx| {
            let h = ctx.spawn("outer", |c| {
                let inner = c.spawn("inner", |c2| c2.charge(500));
                inner.join(c);
            });
            h.join(ctx);
            ctx.now()
        });
        assert_eq!(v, 500);
    }
}
