//! Host-side readings: peak resident memory, CPU steal and the calling
//! thread's involuntary context switches, all from `/proc` (Linux).

use std::fs;

/// Releases memory freed during set-up back to the OS, so the timed
/// phase's peak RSS does not carry garbage from earlier set-ups.
pub fn trim_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's malloc_trim only returns free pages to the OS.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Resets the process's resident-set high-water mark (`VmHWM`) to its
/// current RSS, so the next [`peak_rss_mb`] covers only what follows.
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// The resident-set high-water mark in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("/proc/self/status", "VmHWM:").map_or(0.0, |kb| kb as f64 / 1024.0)
}

/// Involuntary context switches of the calling thread so far.
pub fn involuntary_switches() -> u64 {
    status_field("/proc/thread-self/status", "nonvoluntary_ctxt_switches:").unwrap_or(0)
}

fn status_field(path: &str, key: &str) -> Option<u64> {
    let text = fs::read_to_string(path).ok()?;
    let line = text.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// Aggregate CPU time counters from `/proc/stat`: `(steal, total)` in
/// clock ticks.
#[derive(Clone, Copy, Default)]
pub struct CpuTimes {
    steal: u64,
    total: u64,
}

impl CpuTimes {
    pub fn now() -> CpuTimes {
        let text = fs::read_to_string("/proc/stat").unwrap_or_default();
        let fields: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .filter_map(|f| f.parse().ok())
            .collect();
        CpuTimes {
            steal: fields.get(7).copied().unwrap_or(0),
            total: fields.iter().take(8).sum(),
        }
    }

    /// The share of all CPU time since `earlier` that the hypervisor
    /// stole from this guest.
    pub fn steal_share_since(&self, earlier: &CpuTimes) -> f64 {
        let total = self.total.saturating_sub(earlier.total);
        if total == 0 {
            return 0.0;
        }
        self.steal.saturating_sub(earlier.steal) as f64 / total as f64
    }
}
