//! Std-only host counters read around each timed call.
//!
//! - CPU time (user and system) of the whole process from
//!   `/proc/self/stat`, which sums every thread, including threads that
//!   have already exited (the simulator's processor threads end with
//!   each run).
//! - Peak resident memory (`VmHWM`) from `/proc/self/status`.
//! - Voluntary and involuntary context switches of the whole process
//!   from `getrusage(RUSAGE_SELF)`. The `*_ctxt_switches` lines of
//!   `/proc/self/status` count only the reading thread, so they miss
//!   the per-processor threads a run spawns and joins; the status
//!   parser still reads them for the calling thread.

use std::time::Instant;

/// Clock ticks per second of the `/proc/<pid>/stat` time fields
/// (`USER_HZ`, fixed at 100 by the Linux ABI).
pub const USER_HZ: f64 = 100.0;

/// CPU time fields of `/proc/self/stat`, in clock ticks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatTimes {
    /// `utime`: user-mode ticks.
    pub utime: u64,
    /// `stime`: kernel-mode ticks.
    pub stime: u64,
}

/// Parses `utime` and `stime` (fields 14 and 15) out of a
/// `/proc/<pid>/stat` line. The command name (field 2) is in
/// parentheses and may itself contain spaces and parentheses, so the
/// fields are counted from the last `)`.
pub fn parse_stat(line: &str) -> Option<StatTimes> {
    let rest = &line[line.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state): field n is at index n - 3.
    Some(StatTimes {
        utime: fields.get(11)?.parse().ok()?,
        stime: fields.get(12)?.parse().ok()?,
    })
}

/// The `/proc/self/status` lines the benchmark reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Status {
    /// `VmHWM`: peak resident set size, KiB.
    pub vm_hwm_kb: u64,
    /// `voluntary_ctxt_switches` of the reading thread.
    pub vcsw: u64,
    /// `nonvoluntary_ctxt_switches` of the reading thread.
    pub nvcsw: u64,
}

/// Parses the `VmHWM` and context-switch lines of `/proc/<pid>/status`.
/// Missing lines read as 0.
pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let num = || {
            value
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key.trim() {
            "VmHWM" => s.vm_hwm_kb = num(),
            "voluntary_ctxt_switches" => s.vcsw = num(),
            "nonvoluntary_ctxt_switches" => s.nvcsw = num(),
            _ => {}
        }
    }
    s
}

/// Reads this process's CPU times; zeros if `/proc` is unreadable.
pub fn stat_times() -> StatTimes {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// Reads this process's status lines; zeros if `/proc` is unreadable.
pub fn status() -> Status {
    std::fs::read_to_string("/proc/self/status")
        .map(|s| parse_status(&s))
        .unwrap_or_default()
}

/// Peak resident memory of the process so far, MB.
pub fn peak_rss_mb() -> f64 {
    status().vm_hwm_kb as f64 / 1024.0
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of the 64-bit Linux ABI.
#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    longs: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Whole-process voluntary and involuntary context switches, living
/// and exited threads included; `(0, 0)` if the call fails.
pub fn ctx_switches() -> (u64, u64) {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        longs: [0; 14],
    };
    // SAFETY: `ru` is a writable struct with the C layout of
    // `struct rusage`; getrusage only writes into it.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return (0, 0);
    }
    // ru_nvcsw and ru_nivcsw are the last two longs.
    (ru.longs[12].max(0) as u64, ru.longs[13].max(0) as u64)
}

/// One reading of every counter, taken around a timed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Host wall clock.
    pub at: Instant,
    /// Process CPU times.
    pub times: StatTimes,
    /// Whole-process voluntary context switches.
    pub vcsw: u64,
    /// Whole-process involuntary context switches.
    pub nvcsw: u64,
}

impl Sample {
    /// Reads every counter now.
    pub fn now() -> Sample {
        let (vcsw, nvcsw) = ctx_switches();
        Sample {
            at: Instant::now(),
            times: stat_times(),
            vcsw,
            nvcsw,
        }
    }

    /// What happened between `self` and the later sample `end`.
    pub fn delta(&self, end: &Sample) -> Delta {
        Delta {
            wall_s: end.at.duration_since(self.at).as_secs_f64(),
            user_s: end.times.utime.saturating_sub(self.times.utime) as f64 / USER_HZ,
            sys_s: end.times.stime.saturating_sub(self.times.stime) as f64 / USER_HZ,
            vcsw: end.vcsw.saturating_sub(self.vcsw),
            nvcsw: end.nvcsw.saturating_sub(self.nvcsw),
        }
    }
}

/// Counter differences over one interval.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Delta {
    /// Host wall seconds.
    pub wall_s: f64,
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Voluntary context switches.
    pub vcsw: u64,
    /// Involuntary context switches.
    pub nvcsw: u64,
}

impl Delta {
    /// User plus system CPU seconds.
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_are_counted_from_the_last_paren() {
        let line = "4242 (my (odd) cmd) S 1 4242 4242 0 -1 4194560 1234 0 0 0 \
                    731 95 0 0 20 0 130 0 987654 123456789 4321 18446744073709551615";
        assert_eq!(
            parse_stat(line),
            Some(StatTimes {
                utime: 731,
                stime: 95
            })
        );
    }

    #[test]
    fn short_or_garbled_stat_is_rejected() {
        assert_eq!(parse_stat("1 (x) S 1 2 3"), None);
        assert_eq!(parse_stat("no paren at all"), None);
        assert_eq!(
            parse_stat("1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"),
            None,
            "non-numeric utime"
        );
    }

    #[test]
    fn status_lines_are_picked_out() {
        let text = "Name:\thostbench\nVmPeak:\t  999 kB\nVmHWM:\t   51200 kB\n\
                    VmRSS:\t 40000 kB\nvoluntary_ctxt_switches:\t17\n\
                    nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(
            parse_status(text),
            Status {
                vm_hwm_kb: 51200,
                vcsw: 17,
                nvcsw: 3
            }
        );
        assert_eq!(parse_status("Name:\tx\n"), Status::default());
    }

    #[test]
    fn live_counters_read_and_move_forward() {
        let a = Sample::now();
        let mut x = 0u64;
        for i in 0..2_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        std::thread::spawn(|| std::thread::sleep(std::time::Duration::from_millis(2)))
            .join()
            .unwrap();
        let b = Sample::now();
        let d = a.delta(&b);
        assert!(d.wall_s > 0.0);
        assert!(d.cpu_s() >= 0.0);
        assert!(b.vcsw >= a.vcsw && b.vcsw > 0, "rusage counts switches");
        assert!(status().vm_hwm_kb > 0);
    }
}
