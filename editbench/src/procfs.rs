//! Process counters of this process (Linux): `/proc/self` and the
//! process CPU-time clock.

use std::ffi::{c_int, c_long};

/// Clock ticks per second of the `utime`/`stime` fields (`USER_HZ`,
/// which Linux fixes at 100 on every architecture it exports to user
/// space).
pub const TICKS_PER_S: f64 = 100.0;

/// Cumulative CPU time and page faults of the whole process.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcStat {
    /// Minor page faults.
    pub minflt: u64,
    /// User-mode CPU time, in ticks.
    pub utime: u64,
    /// Kernel-mode CPU time, in ticks.
    pub stime: u64,
}

impl ProcStat {
    /// Reads `/proc/self/stat`; all zero where it cannot be read.
    pub fn read() -> ProcStat {
        std::fs::read_to_string("/proc/self/stat")
            .ok()
            .and_then(|s| ProcStat::parse(&s))
            .unwrap_or_default()
    }

    /// Parses a `stat` line. Fields after the parenthesised command
    /// name start at field 3 (`state`): `minflt` is field 10, `utime`
    /// 14 and `stime` 15.
    fn parse(line: &str) -> Option<ProcStat> {
        let rest = &line[line.rfind(')')? + 1..];
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let field = |n: usize| fields.get(n - 3)?.parse::<u64>().ok();
        Some(ProcStat {
            minflt: field(10)?,
            utime: field(14)?,
            stime: field(15)?,
        })
    }

    /// Total CPU time, in seconds.
    pub fn cpu_s(&self) -> f64 {
        (self.utime + self.stime) as f64 / TICKS_PER_S
    }

    /// Counter increments from `earlier` to `self`.
    #[must_use]
    pub fn since(&self, earlier: &ProcStat) -> ProcStat {
        ProcStat {
            minflt: self.minflt.saturating_sub(earlier.minflt),
            utime: self.utime.saturating_sub(earlier.utime),
            stime: self.stime.saturating_sub(earlier.stime),
        }
    }
}

/// `CLOCK_PROCESS_CPUTIME_ID`: CPU time consumed by every thread of the
/// process.
const CLOCK_PROCESS_CPUTIME_ID: c_int = 2;

/// `struct timespec` (`time_t` is a `long` in the C library's default
/// ABI).
#[repr(C)]
struct Timespec {
    sec: c_long,
    nsec: c_long,
}

extern "C" {
    fn clock_gettime(clock: c_int, time: *mut Timespec) -> c_int;
}

/// CPU time the process has consumed in user and kernel mode, in seconds,
/// at nanosecond resolution; `NaN` if the clock cannot be read.
pub fn cpu_time_s() -> f64 {
    let mut time = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `time` is a valid, writable `struct timespec`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut time) };
    if rc == 0 {
        time.sec as f64 + time.nsec as f64 * 1e-9
    } else {
        f64::NAN
    }
}

/// The process's resident-set high-water mark (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_stat_line_with_spaces_in_the_name() {
        let line = "42 (a b) R 1 2 3 4 5 6 700 8 9 10 1100 1200 13 14";
        let stat = ProcStat::parse(line).expect("parses");
        assert_eq!((stat.minflt, stat.utime, stat.stime), (700, 1100, 1200));
    }

    #[test]
    fn reads_this_process() {
        assert!(ProcStat::read().minflt > 0);
        assert!(peak_rss_kib().expect("VmHWM present") > 0);
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let before = cpu_time_s();
        let mut x = 1u64;
        for i in 0..10_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i));
        }
        assert!(cpu_time_s() > before, "{x}");
    }
}
