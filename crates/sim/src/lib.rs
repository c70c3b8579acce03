//! # dsim — deterministic virtual-time discrete-event executor
//!
//! `dsim` is the substrate under the whole DArray reproduction. It runs a
//! *simulated cluster* inside one process: every simulated thread
//! (application thread, runtime thread, NIC agent) is a stackful fiber on
//! the OS thread that called [`Sim::run`], so **one of them executes at any
//! instant**. A single-token scheduler hands control to the runnable thread
//! with the smallest *virtual clock* by switching stacks, and all latencies
//! (network propagation, CPU costs, lock hold times) are charged in virtual
//! nanoseconds.
//!
//! Because scheduling decisions depend only on virtual clocks — and those
//! are produced deterministically by the program itself — a `dsim` run is
//! **bit-for-bit reproducible**, which is what lets the benchmark harness
//! regenerate every figure of the paper deterministically on a one-core
//! machine.
//!
//! ## Execution model
//!
//! * A simulated thread runs *natively* (direct execution) and calls
//!   [`Ctx::charge`] to account for the virtual cost of the work it just
//!   performed. Pure computation therefore costs one `u64` add per charge:
//!   only the simulation's OS thread writes a clock, so the add is a plain
//!   load and store ([`SingleWriterU64`]).
//! * Interaction points — [`Mailbox::recv`], [`WaitCell::wait`],
//!   [`Ctx::sleep`], [`SimBarrier::wait`], [`Ctx::yield_now`] — synchronize
//!   with the global event queue. Message sends schedule *delivery events*
//!   at a future virtual time.
//! * A thread may run ahead of the global virtual time between interaction
//!   points (lax synchronization, in the style of the Graphite simulator);
//!   the run-ahead is bounded by a configurable quantum after which the
//!   thread voluntarily yields.
//! * Fibers share their OS thread, so simulated code must not hold a host
//!   lock across an interaction point (the next fiber to take it would
//!   block the whole simulation) and must not keep state in `thread_local!`.
//!   Each fiber has a 2 MiB stack over a guard page: overflowing it kills
//!   the process with SIGSEGV rather than Rust's "stack overflow" message.
//!   Only x86_64 Linux is supported.
//!
//! ## Example
//!
//! ```
//! use dsim::{Sim, SimConfig, Mailbox};
//!
//! let total = Sim::new(SimConfig::default()).run(|ctx| {
//!     let mb: Mailbox<u64> = Mailbox::new("demo");
//!     let tx = mb.clone();
//!     let child = ctx.spawn("producer", move |ctx| {
//!         for i in 0..4 {
//!             ctx.charge(100); // 100 ns of "work"
//!             tx.send(ctx, i, 1_000); // 1 µs propagation delay
//!         }
//!     });
//!     let mut sum = 0;
//!     for _ in 0..4 {
//!         sum += mb.recv(ctx);
//!     }
//!     child.join(ctx);
//!     assert!(ctx.now() >= 1_000);
//!     sum
//! });
//! assert_eq!(total, 0 + 1 + 2 + 3);
//! ```

mod ctx;
mod fiber;
mod mailbox;
mod rng;
mod sched;
mod single_writer;
mod sync;
mod time;

pub use ctx::{Ctx, JoinHandle};
pub use mailbox::Mailbox;
pub use rng::Rng;
pub use sched::{Sim, SimConfig, SimStats, ThreadId};
pub use single_writer::SingleWriterU64;
pub use sync::{SimBarrier, VirtualLock, WaitCell};
pub use time::{to_secs, VTime, MICROSECOND, MILLISECOND, SECOND};
