//! Fiber lifecycle: stack reuse, deep stacks, one `Sim` per OS thread, and
//! an OS thread that stays usable after a simulation fails mid-stack.

use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier, Mutex};

use dsim::{Ctx, Mailbox, Sim, SimConfig};

/// Four workers charging and yielding in lock step: the final clock and the
/// order in which the workers logged their clocks.
fn interleaving_workload() -> (u64, Vec<(String, u64)>) {
    let log = Arc::new(Mutex::new(Vec::new()));
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

#[test]
fn sequential_spawns_reuse_one_stack() {
    let stats = Sim::new(SimConfig::default()).run(|ctx| {
        for i in 0..10_000u64 {
            let h = ctx.spawn("short", move |c| c.charge(i % 7));
            h.join(ctx);
        }
        ctx.stats()
    });
    assert_eq!(stats.spawned, 10_001);
    // At most one spawned thread is ever live, so one stack serves them all.
    assert_eq!(stats.stacks, 1);
}

#[test]
fn a_fiber_can_recurse_through_a_mebibyte_of_stack() {
    /// Recurse with 4 KiB frames until they reach `bytes` below `top`;
    /// returns how far below `top` the deepest frame sits.
    fn dive(top: usize, bytes: usize) -> usize {
        let frame = black_box([0u8; 4096]);
        let depth = top - frame.as_ptr() as usize;
        let deepest = if depth >= bytes {
            depth
        } else {
            dive(top, bytes)
        };
        black_box(&frame);
        deepest
    }
    let used = Sim::new(SimConfig::default()).run(|ctx| {
        let used = Arc::new(Mutex::new(0));
        let u = used.clone();
        let h = ctx.spawn("deep", move |c| {
            let top = black_box(0u8);
            *u.lock().unwrap() = dive(&top as *const u8 as usize, 1 << 20);
            c.charge(1);
        });
        h.join(ctx);
        let used = *used.lock().unwrap();
        used
    });
    assert!(used >= 1 << 20, "recursion used only {used} bytes of stack");
}

#[test]
fn sims_on_four_os_threads_at_once_match_a_sequential_run() {
    let expected = interleaving_workload();
    let start = Arc::new(Barrier::new(4));
    let threads: Vec<_> = (0..4)
        .map(|_| {
            let start = start.clone();
            std::thread::spawn(move || {
                start.wait();
                (0..50).map(|_| interleaving_workload()).collect::<Vec<_>>()
            })
        })
        .collect();
    for t in threads {
        for run in t.join().unwrap() {
            assert_eq!(run, expected);
        }
    }
}

#[test]
fn an_os_thread_runs_a_new_sim_after_a_panic_strands_fibers_mid_stack() {
    /// Recurse `depth` frames, then block on a mailbox nobody sends to.
    fn block_deep(c: &mut Ctx, never: &Mailbox<u8>, depth: u32) {
        let frame = black_box([depth as u8; 1024]);
        if depth == 0 {
            never.recv(c);
        } else {
            block_deep(c, never, depth - 1);
        }
        black_box(&frame);
    }
    let failed = catch_unwind(AssertUnwindSafe(|| {
        Sim::new(SimConfig::default()).run(|ctx| {
            for i in 0..3 {
                let never = Mailbox::new("never");
                ctx.spawn(&format!("sibling{i}"), move |c| block_deep(c, &never, 64));
            }
            ctx.spawn("bad", |c| {
                c.charge(10);
                panic!("boom");
            });
            // Nothing will ever wake the root: the panicking child finds the
            // simulation stuck and hands the token back here to fail it.
            Mailbox::<u8>::new("root").recv(ctx);
        })
    }));
    let payload = failed.expect_err("the simulation must fail");
    let msg = payload
        .downcast_ref::<String>()
        .cloned()
        .unwrap_or_default();
    assert!(
        msg.contains("simulated thread 'bad' panicked: boom"),
        "unexpected panic message: {msg:?}"
    );
    assert!(!std::thread::panicking());
    assert_eq!(interleaving_workload(), interleaving_workload());
}
