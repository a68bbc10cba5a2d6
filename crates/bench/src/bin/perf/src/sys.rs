//! Process facts read from `/proc` and the checkout: peak RSS, CPU time,
//! core count and the git revision.

use std::path::Path;

/// Peak resident set size (`VmHWM`) in MiB, or `None` off Linux.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// CPU time consumed so far by the process's live threads, in ns: the sum
/// of the first `schedstat` field of every task. The worker pool's threads
/// live for the whole process, so deltas over a phase are exact.
pub fn cpu_ns() -> Option<u64> {
    let mut total = 0u64;
    for task in std::fs::read_dir("/proc/self/task").ok()? {
        let path = task.ok()?.path().join("schedstat");
        // A thread may exit between listing and reading; skip it.
        if let Ok(text) = std::fs::read_to_string(path) {
            total += text.split_whitespace().next()?.parse::<u64>().ok()?;
        }
    }
    Some(total)
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, read from `.git` under `root` without running
/// git; `"unknown"` outside a git checkout.
pub fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let resolve = || -> Option<String> {
        let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
        let head = head.trim();
        let Some(reference) = head.strip_prefix("ref: ") else {
            return Some(head.to_string());
        };
        if let Ok(hash) = std::fs::read_to_string(git.join(reference)) {
            return Some(hash.trim().to_string());
        }
        let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
        packed.lines().find_map(|l| {
            let (hash, name) = l.split_once(' ')?;
            (name == reference).then(|| hash.to_string())
        })
    };
    match resolve() {
        Some(hash) if hash.len() >= 12 => hash[..12].to_string(),
        _ => "unknown".to_string(),
    }
}
