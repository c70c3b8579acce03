//! Directory entries (dentries): the per-chunk metadata consulted by the
//! lock-free data access path (Figure 4) and manipulated by runtime threads
//! (Figures 5 and 6).
//!
//! The fast path costs exactly what the paper claims: one atomic load
//! (`delay_flag`), two atomic RMWs (`refcnt` up/down), and branches. Runtime
//! threads, which are off the critical path, serialize among themselves with
//! an ordinary mutex and coordinate with application threads through the
//! delay-flag / reference-count drain protocol.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU8, Ordering};

use dsim::{Ctx, VirtualLock, WaitCell};
use parking_lot::Mutex;

use crate::protocol::Kind;
use crate::state::LocalState;

// Line sentinels are part of the protocol vocabulary; re-exported here for
// the executor and interface layers that index dentries.
pub(crate) use crate::protocol::{LINE_HOME, LINE_NONE};

/// Outcome of a fast-path acquisition attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Acquire {
    /// Rights held; the reference is kept — caller must `release` after the
    /// data access. Carries the data location (`LINE_HOME` or a cacheline).
    Ok(u32),
    /// `delay_flag` set: a runtime transition is in progress, spin briefly.
    Delayed,
    /// Insufficient rights; go to the slow path.
    NoRights(LocalState),
}

/// Per-chunk directory entry as seen by one node.
pub(crate) struct Dentry {
    state: AtomicU8,
    delay_flag: AtomicBool,
    refcnt: AtomicU32,
    /// Operator id valid while the local state is `Operated`.
    op_tag: AtomicU32,
    /// Cacheline index holding the chunk's data (or a sentinel).
    line: AtomicU32,
    /// Application threads waiting for a slow-path fill; the runtime
    /// notifies and clears on completion.
    pub(crate) waiters: Mutex<Vec<WaitCell>>,
    /// Strawman per-chunk lock for `AccessPath::LockBased` (ablation).
    pub(crate) chunk_lock: VirtualLock,
}

impl Dentry {
    pub(crate) fn new(initial: LocalState, line: u32) -> Self {
        Self {
            state: AtomicU8::new(initial as u8),
            delay_flag: AtomicBool::new(false),
            refcnt: AtomicU32::new(0),
            op_tag: AtomicU32::new(u32::MAX),
            line: AtomicU32::new(line),
            waiters: Mutex::new(Vec::new()),
            chunk_lock: VirtualLock::new(),
        }
    }

    #[inline]
    pub(crate) fn state(&self) -> LocalState {
        LocalState::from_u8(self.state.load(Ordering::Acquire))
    }

    #[inline]
    pub(crate) fn line(&self) -> u32 {
        self.line.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn set_line(&self, line: u32) {
        self.line.store(line, Ordering::Release);
    }

    #[inline]
    pub(crate) fn op_tag(&self) -> u32 {
        self.op_tag.load(Ordering::Acquire)
    }

    #[inline]
    pub(crate) fn refcnt(&self) -> u32 {
        self.refcnt.load(Ordering::SeqCst)
    }

    /// Figure 4 lines 6–15: the lock-free acquisition. On `Ok`, the
    /// reference is held and pins the chunk's state until `release`.
    #[inline]
    pub(crate) fn acquire(&self, kind: Kind) -> Acquire {
        if self.delay_flag.load(Ordering::SeqCst) {
            return Acquire::Delayed;
        }
        self.refcnt.fetch_add(1, Ordering::SeqCst);
        let s = LocalState::from_u8(self.state.load(Ordering::SeqCst));
        if s.permits(kind, || self.op_tag.load(Ordering::SeqCst)) {
            Acquire::Ok(self.line.load(Ordering::Acquire))
        } else {
            self.refcnt.fetch_sub(1, Ordering::SeqCst);
            Acquire::NoRights(s)
        }
    }

    /// Figure 4 line 14: release the reference.
    #[inline]
    pub(crate) fn release(&self) {
        let prev = self.refcnt.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "release without acquire");
    }

    /// Figure 5 lines 2–3, the first half of the state-demotion protocol:
    /// set the delay flag and install the new state. The runtime polls
    /// [`Dentry::drained`] between messages and calls [`Dentry::end_drain`]
    /// once all references are gone, instead of blocking its message loop
    /// as the paper's pseudo-code does.
    #[inline]
    pub(crate) fn begin_drain(&self, new_state: LocalState, new_tag: u32) {
        self.delay_flag.store(true, Ordering::SeqCst);
        self.op_tag.store(new_tag, Ordering::SeqCst);
        self.state.store(new_state as u8, Ordering::SeqCst);
    }

    /// True once no application thread holds a reference.
    #[inline]
    pub(crate) fn drained(&self) -> bool {
        self.refcnt.load(Ordering::SeqCst) == 0
    }

    /// Second half of the deferred drain: unblock application threads.
    #[inline]
    pub(crate) fn end_drain(&self) {
        self.delay_flag.store(false, Ordering::SeqCst);
    }

    /// Is a drain in progress?
    #[inline]
    pub(crate) fn delay_set(&self) -> bool {
        self.delay_flag.load(Ordering::SeqCst)
    }

    /// Figure 6: permission *promotion* — existing accesses remain valid, so
    /// the state is updated without synchronizing with application threads.
    #[inline]
    pub(crate) fn promote_to(&self, new_state: LocalState, new_tag: u32) {
        self.op_tag.store(new_tag, Ordering::SeqCst);
        self.state.store(new_state as u8, Ordering::SeqCst);
    }

    /// Install a transient (Filling*) state from the runtime. No drain is
    /// needed: transitions *into* Filling states only happen from states
    /// with fewer rights, or after an explicit drain.
    #[inline]
    pub(crate) fn set_transient(&self, s: LocalState) {
        debug_assert!(s.in_flight());
        self.state.store(s as u8, Ordering::SeqCst);
    }

    /// Queue an application thread's wait cell for the in-flight fill.
    pub(crate) fn push_waiter(&self, w: WaitCell) {
        self.waiters.lock().push(w);
    }

    /// Notify and clear all fill waiters.
    pub(crate) fn wake_waiters(&self, ctx: &mut Ctx) {
        let ws = std::mem::take(&mut *self.waiters.lock());
        for w in ws {
            w.notify(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsim::{Sim, SimConfig};

    #[test]
    fn acquire_respects_rights() {
        let d = Dentry::new(LocalState::Shared, 7);
        assert_eq!(d.acquire(Kind::Read), Acquire::Ok(7));
        d.release();
        assert_eq!(
            d.acquire(Kind::Write),
            Acquire::NoRights(LocalState::Shared)
        );
        assert_eq!(d.refcnt(), 0);
    }

    #[test]
    fn exclusive_allows_everything() {
        let d = Dentry::new(LocalState::Exclusive, LINE_HOME);
        for k in [Kind::Read, Kind::Write, Kind::Operate(3)] {
            assert_eq!(d.acquire(k), Acquire::Ok(LINE_HOME));
            d.release();
        }
    }

    #[test]
    fn operated_requires_matching_tag() {
        let d = Dentry::new(LocalState::Invalid, 0);
        d.promote_to(LocalState::Operated, 5);
        assert_eq!(d.acquire(Kind::Operate(5)), Acquire::Ok(0));
        d.release();
        assert_eq!(
            d.acquire(Kind::Operate(6)),
            Acquire::NoRights(LocalState::Operated)
        );
        assert_eq!(
            d.acquire(Kind::Read),
            Acquire::NoRights(LocalState::Operated)
        );
    }

    #[test]
    fn delay_flag_defers_acquisition() {
        let d = Dentry::new(LocalState::Shared, 0);
        d.delay_flag.store(true, Ordering::SeqCst);
        assert_eq!(d.acquire(Kind::Read), Acquire::Delayed);
        d.delay_flag.store(false, Ordering::SeqCst);
        assert_eq!(d.acquire(Kind::Read), Acquire::Ok(0));
        d.release();
    }

    #[test]
    fn drain_waits_for_references() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let d = std::sync::Arc::new(Dentry::new(LocalState::Shared, 1));
            // An application thread holds a reference for 1 µs.
            let d2 = d.clone();
            let h = ctx.spawn("app", move |c| {
                assert_eq!(d2.acquire(Kind::Read), Acquire::Ok(1));
                c.sleep(1_000); // hold the reference across a blocking point
                d2.release();
            });
            // Let the app thread run first (it has the same clock; charging
            // makes ours later so the scheduler picks it).
            ctx.charge(1);
            ctx.yield_now();
            let t0 = ctx.now();
            d.begin_drain(LocalState::Invalid, u32::MAX);
            // The runtime polls between messages until references drain.
            while !d.drained() {
                ctx.spin_hint(20);
            }
            d.end_drain();
            // The drain must have waited for the reference to drop.
            assert!(ctx.now() >= 1_000, "drain ended at {} (t0={t0})", ctx.now());
            assert_eq!(d.state(), LocalState::Invalid);
            assert_eq!(d.refcnt(), 0);
            assert!(!d.delay_set());
            h.join(ctx);
        });
    }

    #[test]
    fn acquire_after_drain_sees_new_state() {
        let d = Dentry::new(LocalState::Exclusive, 2);
        d.begin_drain(LocalState::Shared, u32::MAX);
        assert!(d.drained(), "no reference held");
        d.end_drain();
        assert_eq!(
            d.acquire(Kind::Write),
            Acquire::NoRights(LocalState::Shared)
        );
        assert_eq!(d.acquire(Kind::Read), Acquire::Ok(2));
        d.release();
    }

    #[test]
    fn waiters_are_notified_once_and_cleared() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let d = std::sync::Arc::new(Dentry::new(LocalState::Invalid, LINE_NONE));
            let w = WaitCell::new();
            d.push_waiter(w.clone());
            let d2 = d.clone();
            let h = ctx.spawn("rt", move |c| {
                c.charge(500);
                d2.promote_to(LocalState::Shared, u32::MAX);
                d2.wake_waiters(c);
            });
            w.wait(ctx);
            assert_eq!(ctx.now(), 500);
            assert!(d.waiters.lock().is_empty());
            h.join(ctx);
        });
    }
}
