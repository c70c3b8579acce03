//! Host clocks: what the simulator itself costs to run.

use std::time::Duration;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the host clocks read Linux interfaces with 64-bit time_t and long");

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn sched_getcpu() -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Pin the calling thread, and so every thread it spawns later, to the CPU
/// it runs on now; returns that CPU. The simulator runs one thread at a
/// time, so one CPU loses no speed, and token handoffs then never migrate
/// between cores: host CPU time per repetition varies several times less.
pub fn pin_to_current_cpu() -> Option<usize> {
    // SAFETY: sched_getcpu takes no arguments and only reads kernel state.
    let cpu = usize::try_from(unsafe { sched_getcpu() }).ok()?;
    let mut mask = [0u64; 16]; // a 1024-bit cpu_set_t
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is a live, readable cpu_set_t of exactly the size
    // passed, and pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// CPU time (user + system) consumed so far by every thread of this
/// process. The simulated cluster runs one OS thread at a time, so this is
/// steadier than wall-clock time on a shared machine.
pub fn process_cpu() -> Duration {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec (two 64-bit fields on the
    // 64-bit Linux targets this benchmark builds for) that outlives the
    // call, and CLOCK_PROCESS_CPUTIME_ID is a clock every Linux supports.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Linux `struct rusage`: two timevals, then 14 longs led by `ru_maxrss`.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kib: i64,
    rest: [i64; 13],
}

const RUSAGE_SELF: i32 = 0;

/// Peak resident set size of this process so far, MiB.
pub fn peak_rss_mib() -> f64 {
    let mut usage = Rusage {
        times: [0; 4],
        maxrss_kib: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a valid, writable `struct rusage` (the layout above
    // on the 64-bit Linux targets this benchmark builds for) that outlives
    // the call.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    usage.maxrss_kib as f64 / 1024.0
}
