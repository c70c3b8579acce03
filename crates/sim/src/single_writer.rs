//! A word that one OS thread writes and any thread may read.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// A `u64` written only by the OS thread that created it, and read by any.
///
/// Every simulated thread of a [`crate::Sim`] is a fiber on the OS thread
/// that called [`crate::Sim::run`], so state that only simulated code (and
/// the scheduler) updates has exactly one writer. With one writer an
/// update is a relaxed load and store, where a shared atomic would need a
/// locked read-modify-write on every call. The virtual clocks behind
/// [`crate::Ctx::charge`] are these, and so are the DArray runtime's
/// per-node counters. Readers on other OS threads see some recent value.
///
/// Create one on the OS thread that will write it, such as inside
/// `Sim::run`. Debug builds assert on every write that it comes from that
/// thread.
pub struct SingleWriterU64 {
    value: AtomicU64,
    #[cfg(debug_assertions)]
    writer: std::thread::ThreadId,
}

impl SingleWriterU64 {
    /// A word holding `value`, written from now on by the calling OS
    /// thread only.
    pub fn new(value: u64) -> Self {
        Self {
            value: AtomicU64::new(value),
            #[cfg(debug_assertions)]
            writer: std::thread::current().id(),
        }
    }

    /// The current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.check_writer();
        self.value.store(self.get() + n, Ordering::Relaxed);
    }

    /// Raise the value to `v` if it is lower.
    #[inline]
    pub fn raise(&self, v: u64) {
        self.check_writer();
        if v > self.get() {
            self.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    fn check_writer(&self) {
        #[cfg(debug_assertions)]
        assert_eq!(
            std::thread::current().id(),
            self.writer,
            "a SingleWriterU64 written from an OS thread other than its creator"
        );
    }
}

impl Default for SingleWriterU64 {
    fn default() -> Self {
        Self::new(0)
    }
}

impl fmt::Debug for SingleWriterU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.get(), f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_raise() {
        let w = SingleWriterU64::new(5);
        w.add(3);
        assert_eq!(w.get(), 8);
        w.raise(6);
        assert_eq!(w.get(), 8);
        w.raise(11);
        assert_eq!(w.get(), 11);
        assert_eq!(format!("{w:?}"), "11");
    }

    #[test]
    fn other_threads_read() {
        let w = SingleWriterU64::new(0);
        w.add(42);
        std::thread::scope(|s| {
            assert_eq!(s.spawn(|| w.get()).join().unwrap(), 42);
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_second_writer_panics_in_debug_builds() {
        let w = SingleWriterU64::new(0);
        let err = std::thread::scope(|s| s.spawn(|| w.add(1)).join()).unwrap_err();
        let msg = err.downcast_ref::<String>().unwrap();
        assert!(msg.contains("other than its creator"), "{msg}");
        assert_eq!(w.get(), 0);
    }
}
