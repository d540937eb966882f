//! Process CPU time and peak memory, read from `/proc/self`.
//!
//! Both readings are Linux-only. Elsewhere they return `None`, and the
//! benchmark reports `null` beside the `obs.rss_unavailable` marker
//! instead of a silent zero.

/// Clock ticks per second of the `utime`/`stime` fields. The kernel
/// reports them in `USER_HZ`, which is 100 on every Linux ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, all threads.
pub fn cpu_seconds() -> Option<f64> {
    if !cfg!(target_os = "linux") {
        return None;
    }
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The command name is parenthesised and may hold spaces; the fields
    // after its closing parenthesis start at field 3 (`state`).
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) as f64 / USER_HZ)
}

/// Resets the process's resident-set high-water mark to its current RSS,
/// so a later [`peak_rss_mib`] covers only what ran in between. Returns
/// false when the kernel refused or the platform has no `/proc`.
pub fn reset_peak_rss() -> bool {
    cfg!(target_os = "linux") && std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The resident-set high-water mark (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    jcdn_obs::manifest::peak_rss_kb().map(|kb| kb as f64 / 1024.0)
}
