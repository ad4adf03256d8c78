//! Run context (so noisy runs can be explained) and the one-thread guard.

use std::fs;

/// Refuses to run with more than one simulation thread: `EEAT_THREADS`
/// must be unset or `1`, and is pinned to `1` for the library's
/// `par` helpers. The benchmark itself never calls them.
pub fn pin_one_thread() -> Result<(), String> {
    match std::env::var("EEAT_THREADS") {
        Ok(v) if v.trim() != "1" => Err(format!(
            "EEAT_THREADS={v}: the benchmark runs the simulator on one host thread only"
        )),
        _ => {
            std::env::set_var("EEAT_THREADS", "1");
            check_one_thread()
        }
    }
}

/// Fails when the process has more than one thread.
pub fn check_one_thread() -> Result<(), String> {
    match status_field("Threads:") {
        Some(n) if n > 1 => Err(format!(
            "{n} threads running; the benchmark is single-threaded"
        )),
        _ => Ok(()),
    }
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM:").map_or(0.0, |kib| kib as f64 / 1024.0)
}

fn status_field(key: &str) -> Option<u64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..].split_whitespace().next()?.parse().ok()
}

/// The 1-minute load average.
pub fn loadavg_1m() -> String {
    fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|l| l.split_whitespace().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The machine and source state a run was measured under.
pub struct RunContext {
    nproc: usize,
    loadavg_1m: String,
    commit: String,
    rustc: String,
}

impl RunContext {
    pub fn capture() -> Self {
        let manifest = eeat_obs::RunManifest::discover("benchmark", &[], 0, 0, 1);
        Self {
            nproc: std::thread::available_parallelism().map_or(0, |n| n.get()),
            loadavg_1m: loadavg_1m(),
            commit: manifest.commit,
            rustc: manifest.rustc,
        }
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} loadavg_1m={} commit={} rustc={:?}",
            self.nproc, self.loadavg_1m, self.commit, self.rustc
        )
    }
}
