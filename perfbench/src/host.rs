//! Host fingerprint and peak resident memory.

use std::process::Command;

/// Peak resident set size of this process in MB (`VmHWM` from
/// `/proc/self/status`); `None` where that file does not exist.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Worker threads the library defaults resolve to.
pub fn nproc() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// First line of a command's standard output, or `"absent"`. Waits for
/// the child to exit.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(|l| l.trim().to_string())
        })
        .filter(|l| !l.is_empty())
        .unwrap_or_else(|| "absent".to_string())
}

/// `(key, value)` pairs identifying the machine and the code measured.
/// The commit is `"absent"` when the working directory is not a git
/// checkout.
pub fn fingerprint() -> Vec<(&'static str, String)> {
    vec![
        ("nproc", nproc().to_string()),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
        ("rustc", command_line("rustc", &["--version"])),
        ("git_commit", command_line("git", &["rev-parse", "HEAD"])),
    ]
}
