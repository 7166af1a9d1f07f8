//! Process CPU time and peak memory of this process and of its children
//! (`getrusage`), hypervisor steal (`/proc/stat`), and peak memory of this
//! process (`/proc/self/status`).

/// Clock ticks per second of the `/proc/stat` CPU columns (`USER_HZ`,
/// fixed at 100 by the Linux ABI on every mainstream architecture).
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds consumed so far by this process (all threads) plus every
/// child it has waited for: the `utime + stime` that `/proc/self/stat`
/// reports as `utime + stime + cutime + cstime`, read through `getrusage`
/// for microseconds instead of 10 ms ticks.
pub fn cpu_s() -> f64 {
    [RUSAGE_SELF, RUSAGE_CHILDREN]
        .into_iter()
        .map(|who| {
            let u = rusage(who);
            let secs = |tv: [i64; 2]| tv[0] as f64 + tv[1] as f64 / 1e6;
            secs(u.utime) + secs(u.stime)
        })
        .sum()
}

/// Seconds of hypervisor steal accrued so far across all of the machine's
/// CPUs (the `steal` column of `/proc/stat`): time a runnable vCPU was not
/// running because the host gave its core to someone else.
pub fn steal_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    stat.lines()
        .next()
        .and_then(|cpu| cpu.split_whitespace().nth(8))
        .and_then(|ticks| ticks.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / TICKS_PER_S)
}

/// Peak resident set of this process so far, in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// `struct rusage` of 64-bit Linux: two `timeval`s, then fourteen `long`s
/// starting with `ru_maxrss` (KiB).
#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut RUsage) -> i32;
}

/// `RUSAGE_SELF`: this process, all threads.
const RUSAGE_SELF: i32 = 0;
/// `RUSAGE_CHILDREN`: the waited-for descendants of this process.
const RUSAGE_CHILDREN: i32 = -1;

/// `getrusage(who)`, all zeros if the call fails.
fn rusage(who: i32) -> RUsage {
    let mut usage = RUsage {
        utime: [0; 2],
        stime: [0; 2],
        maxrss: 0,
        rest: [0; 13],
    };
    // SAFETY: `usage` is a live, writable `struct rusage` with the 64-bit
    // Linux layout, which is all `getrusage` writes through the pointer.
    let rc = unsafe { getrusage(who, &mut usage) };
    if rc != 0 {
        usage.utime = [0; 2];
        usage.stime = [0; 2];
        usage.maxrss = 0;
    }
    usage
}

/// Peak resident set of the largest child process waited for so far, in
/// MiB (`ru_maxrss` of `RUSAGE_CHILDREN`), or 0 if none.
pub fn children_peak_rss_mib() -> f64 {
    rusage(RUSAGE_CHILDREN).maxrss as f64 / 1024.0
}
