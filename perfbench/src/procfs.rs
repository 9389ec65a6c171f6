//! Process accounting from `/proc`: CPU time, peak RSS and context
//! switches of the server process (and the client's own CPU time), and the
//! machine's steal time.

use std::fs;

/// Kernel clock ticks per second for `/proc/<pid>/stat` times (`USER_HZ`,
/// 100 on every Linux architecture this runs on).
const TICKS_PER_S: u64 = 100;

/// A point-in-time reading of one process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ProcSample {
    /// User + system CPU time of all threads, past and present, in µs.
    pub cpu_us: u64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
    /// Peak resident set size (`VmHWM`), KiB.
    pub hwm_kb: u64,
}

/// User + system CPU time of process `pid` (`"self"` for this one) in µs,
/// from fields 14 and 15 of `/proc/<pid>/stat`.
pub fn cpu_us(pid: &str) -> Option<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may contain spaces; fields resume after its ')'.
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state), so field k is at index k − 3.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * (1_000_000 / TICKS_PER_S))
}

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Reads CPU, context switches (summed over `/proc/<pid>/task/*`) and
/// `VmHWM` of process `pid`.
pub fn sample(pid: u32) -> Option<ProcSample> {
    let status = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let mut ctx = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task")).ok()?.flatten() {
        if let Ok(s) = fs::read_to_string(task.path().join("status")) {
            ctx += status_field(&s, "voluntary_ctxt_switches:").unwrap_or(0)
                + status_field(&s, "nonvoluntary_ctxt_switches:").unwrap_or(0);
        }
    }
    Some(ProcSample {
        cpu_us: cpu_us(&pid.to_string())?,
        ctx_switches: ctx,
        hwm_kb: status_field(&status, "VmHWM:")?,
    })
}

/// CPU time the hypervisor gave to other guests (`steal`, the eighth value
/// of `/proc/stat`'s `cpu` line), summed over CPUs, in ms. A window with
/// much steal ran on a contended host.
pub fn steal_ms() -> Option<u64> {
    let stat = fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    let steal: u64 = line.split_whitespace().nth(8)?.parse().ok()?;
    Some(steal * (1000 / TICKS_PER_S))
}
