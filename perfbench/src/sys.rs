//! The operating-system surface the benchmark reads from outside the
//! program: `/proc` accounting of server processes and the switchable
//! counting allocator. Linux only.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicBool, Ordering};

// ------------------------------------------------------ counting allocator

/// Global allocator that counts allocations per thread once switched on
/// with [`count_allocations`]. Untraced runs never switch it on, so their
/// allocator does one relaxed load and nothing else.
pub struct SwitchableCounter;

static COUNTING: AtomicBool = AtomicBool::new(false);

thread_local! {
    // Const-initialized with no destructor, so touching it from inside
    // the allocator cannot recurse into the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Start counting allocations in every thread (traced runs only).
pub fn count_allocations() {
    COUNTING.store(true, Ordering::Relaxed);
}

/// Allocations made by the calling thread since counting began.
pub fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

#[inline]
fn bump() {
    if COUNTING.load(Ordering::Relaxed) {
        THREAD_ALLOCS.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the only addition is a thread-local counter bump, which
// never allocates.
unsafe impl GlobalAlloc for SwitchableCounter {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

// ------------------------------------------------------------------ /proc

/// User plus system CPU time of a process, all threads, in microseconds
/// (`utime` + `stime` of `/proc/<pid>/stat`).
pub fn cpu_us(pid: u32) -> std::io::Result<f64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))?;
    // The command name is parenthesised and may hold spaces: split after
    // its closing parenthesis. utime and stime are fields 14 and 15.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| -> std::io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .ok_or_else(|| std::io::Error::other(format!("malformed /proc/{pid}/stat")))
    };
    // Field 3 (state) is the first after the name: utime is 14 - 3 = 11.
    let total = ticks(11)? + ticks(12)?;
    Ok(total * 1e6 / clock_ticks_per_sec())
}

/// Peak resident set size (`VmHWM`) of a process in MiB.
pub fn peak_rss_mb(pid: u32) -> std::io::Result<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| std::io::Error::other(format!("no VmHWM in /proc/{pid}/status")))
}

/// CPU time the hypervisor gave to other guests while this machine's
/// CPUs wanted to run (`steal` of the `cpu` line of `/proc/stat`), in
/// clock ticks summed over CPUs; 0 where the kernel does not report it.
pub fn steal_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    stat.lines()
        .next()
        .and_then(|l| l.strip_prefix("cpu "))
        .and_then(|l| l.split_whitespace().nth(7))
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Online CPUs, for the report header.
pub fn cores() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// CPU time of the calling thread in seconds (`CLOCK_THREAD_CPUTIME_ID`):
/// time the thread ran, not time it waited for IO or for a CPU.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU time of this process, all threads, in seconds
/// (`CLOCK_PROCESS_CPUTIME_ID`), at the clock's full resolution.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

fn cpu_clock_s(clock: c_int) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec for the call's duration.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn sysconf(name: c_int) -> c_long;
    fn clock_gettime(clock: c_int, ts: *mut Timespec) -> c_int;
}

const SC_CLK_TCK: c_int = 2;

fn clock_ticks_per_sec() -> f64 {
    // SAFETY: sysconf reads a constant and has no preconditions.
    let t = unsafe { sysconf(SC_CLK_TCK) };
    if t > 0 {
        t as f64
    } else {
        100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_cpu_time_counts_work_not_sleep() {
        let t0 = thread_cpu_s();
        std::thread::sleep(std::time::Duration::from_millis(50));
        let slept = thread_cpu_s() - t0;
        assert!(slept < 0.02, "sleeping is not CPU time: {slept}");
        let t1 = thread_cpu_s();
        let mut x = 0u64;
        while thread_cpu_s() - t1 < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(thread_cpu_s() - t1 >= 0.01);
        // The process clock counts this thread's work too.
        assert!(process_cpu_s() >= thread_cpu_s());
    }
}
