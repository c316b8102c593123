//! What `/proc` says about a process: peak resident set and CPU time.

/// A `kB` field of `/proc/<pid>/status` (`self` when `pid` is `None`), in MB.
fn status_mb(pid: Option<u32>, field: &str) -> Option<f64> {
    let who = pid.map_or("self".to_string(), |p| p.to_string());
    let text = std::fs::read_to_string(format!("/proc/{who}/status")).ok()?;
    let line = text.lines().find(|l| l.starts_with(field))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Peak resident set (`VmHWM`) in MB.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    status_mb(pid, "VmHWM:")
}

/// Resident set right now (`VmRSS`) in MB.
pub fn rss_mb() -> Option<f64> {
    status_mb(None, "VmRSS:")
}

/// Reset this process's `VmHWM` to its current resident set, so that the
/// next reading is the peak of what ran in between.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// User + system CPU seconds from `/proc/<pid>/stat`, at the usual
/// 100 ticks per second.
pub fn cpu_secs(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name may hold spaces; fields are counted after its ')'.
    let rest = &text[text.rfind(')')? + 1..];
    let mut f = rest.split_whitespace();
    let utime: f64 = f.nth(11)?.parse().ok()?;
    let stime: f64 = f.next()?.parse().ok()?;
    Some((utime + stime) / 100.0)
}

/// (`nproc`, CPU model) of this host, for the record.
pub fn host() -> (usize, String) {
    let n = std::thread::available_parallelism().map_or(1, |n| n.get());
    let model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    (n, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_this_process() {
        assert!(peak_rss_mb(None).unwrap() > 0.5);
        assert!(cpu_secs(std::process::id()).unwrap() >= 0.0);
        assert!(host().0 >= 1);
    }
}
