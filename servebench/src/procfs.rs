//! `/proc` readers: a process's CPU time and peak RSS, and the host's
//! steal time. Parsing is split from reading so it can be tested on
//! fixed text.

use std::fs;

/// Clock ticks per second for `/proc` CPU fields. `USER_HZ` is 100 on
/// every mainstream Linux architecture and is fixed by the kernel ABI.
pub const USER_HZ: f64 = 100.0;

/// User + system CPU ticks from the text of `/proc/<pid>/stat`. The
/// command name (field 2) may hold spaces and parentheses, so fields are
/// counted from the last `)`.
pub fn parse_pid_cpu_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // After the comm: state(3) ppid(4) ... utime(14) stime(15).
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Steal ticks from the aggregate `cpu` line of `/proc/stat`.
pub fn parse_host_steal_ticks(stat: &str) -> Option<u64> {
    let line = stat.lines().find(|l| l.starts_with("cpu "))?;
    // cpu user nice system idle iowait irq softirq steal ...
    line.split_whitespace().nth(8)?.parse().ok()
}

/// A numeric `key:` field from the text of a `/proc` key-value file:
/// `/proc/<pid>/status` (`VmHWM`, in kB) or `/proc/<pid>/io` (`rchar`).
pub fn parse_field(text: &str, key: &str) -> Option<u64> {
    let line = text.lines().find(|l| l.split(':').next() == Some(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// CPU seconds (user + system) `pid` has used so far.
pub fn pid_cpu_seconds(pid: u32) -> Option<f64> {
    let s = fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    parse_pid_cpu_ticks(&s).map(|t| t as f64 / USER_HZ)
}

/// Peak resident set (`VmHWM`) of `pid`, in bytes.
pub fn pid_peak_rss_bytes(pid: u32) -> Option<u64> {
    let s = fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    parse_field(&s, "VmHWM").map(|kb| kb * 1024)
}

/// Bytes `pid` has read so far (`rchar`): for a paged snapshot, the pages
/// its caches faulted in.
pub fn pid_read_bytes(pid: u32) -> Option<u64> {
    let s = fs::read_to_string(format!("/proc/{pid}/io")).ok()?;
    parse_field(&s, "rchar")
}

/// Host-wide steal time so far, in milliseconds (summed over CPUs).
pub fn host_steal_ms() -> Option<f64> {
    let s = fs::read_to_string("/proc/stat").ok()?;
    parse_host_steal_ticks(&s).map(|t| t as f64 * 1000.0 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pid_stat_with_hostile_comm() {
        let s = "4242 (mrx (serve) x) S 1 4242 4242 0 -1 4194560 1200 0 0 0 \
                 731 245 0 0 20 0 6 0 12345 1000000 2000 18446744073709551615";
        assert_eq!(parse_pid_cpu_ticks(s), Some(731 + 245));
        assert_eq!(parse_pid_cpu_ticks("garbage"), None);
        assert_eq!(parse_pid_cpu_ticks("1 (x) S 1 2"), None);
    }

    #[test]
    fn host_steal_from_cpu_line() {
        let s = "cpu  30349 0 14991 155964 176 0 6240 9851 0 0\n\
                 cpu0 15000 0 7000 80000 88 0 3000 5000 0 0\n\
                 intr 1 2 3\n";
        assert_eq!(parse_host_steal_ticks(s), Some(9851));
        assert_eq!(parse_host_steal_ticks("cpu0 1 2 3\n"), None);
    }

    #[test]
    fn key_value_fields() {
        let s = "Name:\tmrx\nVmPeak:\t  200000 kB\nVmHWM:\t   51234 kB\nVmRSS:\t   50000 kB\n";
        assert_eq!(parse_field(s, "VmHWM"), Some(51234));
        assert_eq!(parse_field(s, "VmRSS"), Some(50000));
        assert_eq!(parse_field(s, "VmSwap"), None);
        let io = "rchar: 3980\nwchar: 0\nsyscr: 9\nsyscw: 0\nread_bytes: 0\n";
        assert_eq!(parse_field(io, "syscr"), Some(9));
        assert_eq!(parse_field(io, "rchar"), Some(3980));
    }

    #[test]
    fn live_readers_work_on_this_process() {
        let me = std::process::id();
        assert!(pid_cpu_seconds(me).is_some());
        assert!(pid_peak_rss_bytes(me).unwrap_or(0) > 0);
        assert!(pid_read_bytes(me).is_some());
        assert!(host_steal_ms().is_some());
    }
}
