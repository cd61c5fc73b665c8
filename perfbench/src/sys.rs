//! CPU clocks and peak resident memory, read through the C library the
//! standard library already links (no extra dependency). Linux only.

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut [i64; 18]) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
const RUSAGE_SELF: i32 = 0;
/// Index of `ru_maxrss` in `struct rusage` viewed as 64-bit words (two
/// `timeval`s of two words each come first).
const RU_MAXRSS: usize = 4;

fn clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit words on
    // 64-bit Linux); `clock_gettime` writes only into it.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU time consumed so far by every thread of this process.
pub fn process_cpu_ns() -> u64 {
    clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU time consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The process's resident-set high-water mark in KiB — the kernel counter
/// `/proc/self/status` prints as `VmHWM`.
pub fn peak_rss_kib() -> u64 {
    let mut usage = [0i64; 18];
    // SAFETY: `usage` is 144 writable bytes, the size of `struct rusage` on
    // 64-bit Linux (2 timevals + 14 longs); `getrusage` writes only into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage failed");
    usage[RU_MAXRSS] as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clocks_advance_and_rss_is_positive() {
        let before = process_cpu_ns();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i * i));
        }
        assert!(process_cpu_ns() > before);
        assert!(thread_cpu_ns() > 0);
        assert!(peak_rss_kib() > 0);
    }
}
