//! What ran: the pins every output echoes, so a number can be traced to
//! the program and the knobs that produced it.

use std::path::Path;

/// Environment knobs that silently change the measured program.
pub const ENV_KNOBS: [&str; 5] =
    ["FTSG_KERNEL", "FTSG_BANDS", "FTSG_BAND_MIN_CELLS", "ULFM_SCHED", "ULFM_WORKERS"];

/// Git revision of the checkout, read from `.git` without running git
/// (a source checkout without history reports `unknown`).
pub fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(r) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(r)) {
        return rev.trim().to_string();
    }
    // Packed refs: "<sha> <ref>" lines.
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|p| {
            p.lines().find_map(|l| {
                l.strip_suffix(r).map(|sha| sha.trim().to_string()).filter(|s| !s.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `nproc`: the parallelism available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The set env knobs as `K=V` pairs (empty when none is set).
pub fn env_knobs() -> Vec<String> {
    ENV_KNOBS.iter().filter_map(|k| std::env::var(k).ok().map(|v| format!("{k}={v}"))).collect()
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}
