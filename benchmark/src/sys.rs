//! Process-level measurements: CPU time and peak resident memory.

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, ts: *mut Timespec) -> i32;
}

/// CPU seconds (user + system) consumed by every thread of this process,
/// live or exited, from the scheduler's nanosecond accounting. The tick
/// counters in `/proc/self/stat` are sampled at 100 Hz, which is far too
/// coarse for an event loop that runs in bursts of microseconds between
/// sleeps.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` with the layout the
    // 64-bit Linux ABI defines, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

fn status_kib(field: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// Peak resident set size of this process in KiB (`VmHWM`).
pub fn peak_rss_kib() -> u64 {
    status_kib("VmHWM:").expect("/proc/self/status has VmHWM")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_advances_with_work() {
        let a = cpu_seconds();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() > a);
    }

    #[test]
    fn peak_rss_never_falls() {
        let before = peak_rss_kib();
        assert!(before > 0);
        let big = vec![1u8; 32 << 20];
        std::hint::black_box(&big);
        assert!(peak_rss_kib() >= before + (16 << 10));
    }
}
