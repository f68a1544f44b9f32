//! Helpers shared by the probe examples (`mod support;` in each).

/// Peak resident set of this process in MB (`VmHWM` of
/// `/proc/self/status`; `None` off Linux).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
