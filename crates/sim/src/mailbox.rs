//! Virtual-time mailboxes: the inter-layer queues of Figure 2 (local-request
//! queue, RPC-message queue, RDMA-request queue) are all built on this.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::ctx::Ctx;
use crate::sched::ThreadId;
use crate::time::VTime;

struct MbQueue<T> {
    items: VecDeque<(VTime, T)>,
    waiter: Option<ThreadId>,
}

struct MbInner<T> {
    q: Mutex<MbQueue<T>>,
    #[allow(dead_code)]
    name: String,
}

/// An unbounded, virtually-timed message queue. Senders schedule a delivery
/// event `delay` nanoseconds in the future; the receiver's clock is advanced
/// to the delivery time when it consumes the message.
///
/// Delivery order is deterministic: events execute in `(time, creation-seq)`
/// order, so messages from one sender with non-decreasing delivery times
/// arrive FIFO (the fabric relies on this for RC queue-pair ordering).
pub struct Mailbox<T> {
    inner: Arc<MbInner<T>>,
}

impl<T> Clone for Mailbox<T> {
    fn clone(&self) -> Self {
        Self {
            inner: self.inner.clone(),
        }
    }
}

impl<T: Send + 'static> Mailbox<T> {
    /// Create a mailbox. The name is used in diagnostics only.
    pub fn new(name: &str) -> Self {
        Self {
            inner: Arc::new(MbInner {
                q: Mutex::new(MbQueue {
                    items: VecDeque::new(),
                    waiter: None,
                }),
                name: name.to_string(),
            }),
        }
    }

    /// Send `msg`, delivered `delay` ns after the sender's current time.
    pub fn send(&self, ctx: &Ctx, msg: T, delay: VTime) {
        self.send_at(ctx, msg, ctx.now() + delay);
    }

    /// Send `msg` with an absolute delivery time (which must not be in the
    /// receiver's consumed past for meaningful timing; the fabric guarantees
    /// monotone per-link delivery times).
    pub fn send_at(&self, ctx: &Ctx, msg: T, deliver_at: VTime) {
        let inner = self.inner.clone();
        ctx.schedule(
            deliver_at,
            Box::new(move |s| {
                let mut q = inner.q.lock();
                q.items.push_back((deliver_at, msg));
                if let Some(tid) = q.waiter.take() {
                    s.wake(tid, deliver_at);
                }
            }),
        );
    }

    /// Receive the next message, blocking in virtual time until one arrives.
    pub fn recv(&self, ctx: &mut Ctx) -> T {
        loop {
            {
                let mut q = self.inner.q.lock();
                if let Some((t, msg)) = q.items.pop_front() {
                    drop(q);
                    ctx.bump(t);
                    return msg;
                }
                debug_assert!(
                    q.waiter.is_none() || q.waiter == Some(ctx.tid()),
                    "mailbox supports a single receiver"
                );
                q.waiter = Some(ctx.tid());
            }
            ctx.block();
        }
    }

    /// Receive with a timeout: blocks in virtual time until a message
    /// arrives or the receiver's clock reaches absolute time `deadline`,
    /// whichever comes first. Returns `None` on timeout (with the clock
    /// advanced to at least `deadline`).
    ///
    /// The timeout is realized as a scheduled event that fires only if this
    /// thread is still registered as the mailbox waiter — a message arriving
    /// earlier un-registers the waiter, cancelling the timer, so a timer for
    /// a completed wait never perturbs later blocking points.
    pub fn recv_deadline(&self, ctx: &mut Ctx, deadline: VTime) -> Option<T> {
        loop {
            {
                let mut q = self.inner.q.lock();
                if let Some((t, msg)) = q.items.pop_front() {
                    drop(q);
                    ctx.bump(t);
                    return Some(msg);
                }
                if ctx.now() >= deadline {
                    if q.waiter == Some(ctx.tid()) {
                        q.waiter = None;
                    }
                    return None;
                }
                debug_assert!(
                    q.waiter.is_none() || q.waiter == Some(ctx.tid()),
                    "mailbox supports a single receiver"
                );
                q.waiter = Some(ctx.tid());
            }
            let inner = self.inner.clone();
            let tid = ctx.tid();
            ctx.schedule(
                deadline,
                Box::new(move |s| {
                    let mut q = inner.q.lock();
                    if q.waiter == Some(tid) {
                        q.waiter = None;
                        s.wake(tid, deadline);
                    }
                }),
            );
            ctx.block();
        }
    }

    /// Non-blocking receive. Note the lax-synchronization caveat: a message
    /// whose delivery event has not yet been processed (because this thread
    /// is running ahead) is not visible; `try_recv` is intended for receiver
    /// loops that alternate with blocking `recv`.
    pub fn try_recv(&self, ctx: &mut Ctx) -> Option<T> {
        let mut q = self.inner.q.lock();
        if let Some((t, msg)) = q.items.pop_front() {
            drop(q);
            ctx.bump(t);
            Some(msg)
        } else {
            None
        }
    }

    /// Number of messages currently delivered and waiting.
    pub fn len(&self) -> usize {
        self.inner.q.lock().items.len()
    }

    /// True if no delivered message is waiting.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Sim, SimConfig};

    #[test]
    fn send_recv_advances_receiver_clock() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u32> = Mailbox::new("t");
            let tx = mb.clone();
            let h = ctx.spawn("tx", move |c| {
                c.charge(100);
                tx.send(c, 42, 1_000);
            });
            let v = mb.recv(ctx);
            assert_eq!(v, 42);
            assert_eq!(ctx.now(), 1_100);
            h.join(ctx);
        });
    }

    #[test]
    fn messages_arrive_in_delivery_time_order() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("order");
            let tx = mb.clone();
            let h = ctx.spawn("tx", move |c| {
                tx.send_at(c, 1, 500);
                tx.send_at(c, 2, 600);
                tx.send_at(c, 3, 700);
            });
            assert_eq!(mb.recv(ctx), 1);
            assert_eq!(mb.recv(ctx), 2);
            assert_eq!(mb.recv(ctx), 3);
            assert_eq!(ctx.now(), 700);
            h.join(ctx);
        });
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("e");
            assert!(mb.try_recv(ctx).is_none());
            assert!(mb.is_empty());
        });
    }

    #[test]
    fn recv_deadline_times_out_and_advances_clock() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("to");
            assert_eq!(mb.recv_deadline(ctx, 5_000), None);
            assert!(ctx.now() >= 5_000);
        });
    }

    #[test]
    fn recv_deadline_returns_early_message() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("early");
            let tx = mb.clone();
            let h = ctx.spawn("tx", move |c| tx.send(c, 3, 700));
            assert_eq!(mb.recv_deadline(ctx, 50_000), Some(3));
            assert_eq!(ctx.now(), 700);
            h.join(ctx);
        });
    }

    #[test]
    fn stale_timeout_does_not_disturb_later_waits() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("stale");
            let tx = mb.clone();
            let h = ctx.spawn("tx", move |c| {
                tx.send(c, 1, 100);
                tx.send(c, 2, 90_000);
            });
            // First wait completes at t=100, long before its own deadline.
            assert_eq!(mb.recv_deadline(ctx, 60_000), Some(1));
            assert_eq!(ctx.now(), 100);
            // The cancelled 60_000 timer must not eject the second wait,
            // whose own deadline is later than the message.
            assert_eq!(mb.recv_deadline(ctx, 80_000), None);
            assert!(ctx.now() >= 80_000 && ctx.now() < 90_000);
            assert_eq!(mb.recv(ctx), 2);
            assert_eq!(ctx.now(), 90_000);
            h.join(ctx);
        });
    }

    #[test]
    fn recv_while_message_already_queued_does_not_block() {
        Sim::new(SimConfig::default()).run(|ctx| {
            let mb: Mailbox<u8> = Mailbox::new("q");
            let tx = mb.clone();
            let h = ctx.spawn("tx", move |c| tx.send(c, 9, 10));
            ctx.sleep(1_000); // message delivered long ago
            assert_eq!(mb.recv(ctx), 9);
            assert_eq!(ctx.now(), 1_000); // receiver was already later
            h.join(ctx);
        });
    }
}
