//! Stackful fibers: the stacks simulated threads run on and the context
//! switch that moves the token between them.
//!
//! Every simulated thread but the root runs on a [`Stack`] of its own, on
//! the OS thread that called `Sim::run`. Handing the token over is one call
//! to [`switch`]: it pushes the callee-saved registers on the running stack,
//! records the stack pointer, and pops the next fiber's registers off its
//! stack. No kernel is involved.

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
compile_error!("dsim's fibers switch stacks in x86_64 assembly and map them with Linux mmap");

use std::ffi::c_void;
use std::io;
use std::ptr;

// mmap(2) and friends via the C library; the workspace is dependency-free by
// design. The constants are the x86_64 Linux values.
const PROT_NONE: i32 = 0x0;
const PROT_READ: i32 = 0x1;
const PROT_WRITE: i32 = 0x2;
const MAP_PRIVATE: i32 = 0x02;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_NORESERVE: i32 = 0x4000;
/// Also keeps transparent huge pages off the stack (Linux 6.7 and later),
/// so its RSS grows a 4 KiB page at a time.
const MAP_STACK: i32 = 0x20000;

extern "C" {
    fn mmap(addr: *mut c_void, len: usize, prot: i32, flags: i32, fd: i32, off: i64)
        -> *mut c_void;
    fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
}

/// Usable bytes of a fiber stack: std's default for a spawned thread.
const STACK_SIZE: usize = 2 << 20;
/// The inaccessible page below the stack (x86_64 pages are 4 KiB): running
/// off the end faults there instead of overwriting a neighbour's memory.
const GUARD_SIZE: usize = 4 << 10;
/// MXCSR (low half) and x87 control word (high half) a new fiber starts
/// with: the power-on defaults, every exception masked, round to nearest.
const DEFAULT_FP_CONTROL: usize = 0x1F80 | (0x037F << 32);

/// A fiber stack: `STACK_SIZE` bytes above a `PROT_NONE` guard page. The
/// mapping reserves no swap and is never pre-touched, so a fiber costs only
/// the pages it has actually used. Unmapped on drop.
pub(crate) struct Stack {
    /// Start of the mapping, which is the guard page.
    base: *mut c_void,
}

// SAFETY: a `Stack` owns a private anonymous mapping and nothing else; no
// part of it is tied to the OS thread that made it.
unsafe impl Send for Stack {}

impl Stack {
    /// Map a fresh stack.
    pub(crate) fn new() -> Stack {
        let len = GUARD_SIZE + STACK_SIZE;
        // SAFETY: a private anonymous mapping at an address the kernel picks
        // aliases no existing memory.
        let base = unsafe {
            mmap(
                ptr::null_mut(),
                len,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK,
                -1,
                0,
            )
        };
        if base as isize == -1 {
            panic!("mmap a fiber stack: {}", io::Error::last_os_error());
        }
        let stack = Stack { base };
        // SAFETY: the guard is the first page of the mapping made above,
        // which nothing references yet.
        if unsafe { mprotect(base, GUARD_SIZE, PROT_NONE) } != 0 {
            panic!(
                "mprotect a fiber guard page: {}",
                io::Error::last_os_error()
            );
        }
        stack
    }

    /// Lay out a start frame at the top of this stack, so that the first
    /// [`switch`] to the returned context calls `entry(arg)` on it.
    pub(crate) fn start(&mut self, entry: extern "C" fn(*mut u8) -> !, arg: *mut u8) -> Context {
        // What `switch` pops, lowest address first: the FP control words,
        // r15, r14, r13, r12, rbx, rbp, then the address it returns to.
        let frame: [usize; 8] = [
            DEFAULT_FP_CONTROL,
            0,
            0,
            entry as usize,
            arg as usize,
            0,
            0, // rbp: frame-pointer walks end here
            fiber_start as *const () as usize,
        ];
        // SAFETY: the frame fills the top 64 bytes of the writable part of
        // the mapping, and `&mut self` means no fiber is suspended on it.
        // The top is page-aligned, so the stack pointer `fiber_start` sees
        // after `switch` returns into it is 16-byte aligned, as a `call`
        // requires.
        unsafe {
            let top = self.base.cast::<u8>().add(GUARD_SIZE + STACK_SIZE);
            let sp = top.cast::<usize>().sub(frame.len());
            sp.copy_from_nonoverlapping(frame.as_ptr(), frame.len());
            Context(sp as usize)
        }
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base` is the start of a mapping of exactly this length
        // made by `new`. A fiber suspended on it is never resumed again:
        // resuming requires its stack to be mapped (see `switch`).
        unsafe { munmap(self.base, GUARD_SIZE + STACK_SIZE) };
    }
}

/// A suspended fiber: the stack pointer at which [`switch`] saved its
/// registers, or where [`Stack::start`] laid out its start frame.
#[repr(transparent)]
#[derive(Clone, Copy, Default)]
pub(crate) struct Context(usize);

/// The first instruction of every fiber: `switch` returns here with the
/// start frame's r12 = argument and r13 = entry. The entry never returns;
/// the address `call` pushes has no unwind info, so backtraces stop here.
#[unsafe(naked)]
unsafe extern "C" fn fiber_start() {
    core::arch::naked_asm!("mov rdi, r12", "call r13", "ud2")
}

/// Suspend the running fiber and resume `to`. Saves the callee-saved
/// registers, MXCSR and the x87 control word on the running stack, stores
/// the stack pointer in `*save`, and restores `to`'s. Returns when a later
/// `switch` resumes `*save`.
///
/// # Safety
/// `save` must be valid for writes. `to` must be a context made by
/// [`Stack::start`] or saved by `switch`, whose stack is still mapped, and
/// which has not been resumed since.
#[unsafe(naked)]
pub(crate) unsafe extern "C" fn switch(save: *mut Context, to: Context) {
    core::arch::naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "sub rsp, 8",
        "stmxcsr [rsp]",
        "fnstcw [rsp + 4]",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "ldmxcsr [rsp]",
        "fldcw [rsp + 4]",
        "add rsp, 8",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}
