//! What the benchmark reads from the machine: peak memory and the
//! environment every result is recorded with.

use serde_json::{Map, Value};
use std::time::Instant;

/// The benchmark's one wall-clock source: every time it reports comes
/// from readings taken here.
pub fn now() -> Instant {
    // clasp-lint: allow(D002) -- a benchmark measures wall time; no reading flows back into the program under test
    Instant::now()
}

/// Parses the `VmHWM` (peak resident set) line of a
/// `/proc/<pid>/status` text and returns it in MiB.
pub fn parse_vm_hwm_mb(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb: u64 = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb as f64 / 1024.0)
}

/// This process's peak resident set so far, in MiB. `VmHWM` is per
/// process, which is one reason every measured iteration runs in a
/// fresh one.
pub fn vm_hwm_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .as_deref()
        .and_then(parse_vm_hwm_mb)
        .unwrap_or(f64::NAN)
}

fn first_line(text: &str) -> String {
    text.lines().next().unwrap_or("").trim().to_string()
}

fn read_trimmed(path: &str) -> String {
    std::fs::read_to_string(path)
        .map(|t| first_line(&t))
        .unwrap_or_else(|_| "unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| first_line(&String::from_utf8_lossy(&o.stdout)))
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// The environment a result was measured in: source revision,
/// toolchain, machine and the workload's knobs.
pub fn environment(workload: &str, seed: u64, jobs: usize, query_rate: f64) -> Value {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let mut m = Map::new();
    // A checkout without git metadata records "unknown".
    m.insert(
        "git_sha".into(),
        command_line("git", &["rev-parse", "HEAD"]).into(),
    );
    m.insert(
        "rustc".into(),
        command_line(
            &std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()),
            &["--version"],
        )
        .into(),
    );
    m.insert(
        "nproc".into(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .into(),
    );
    m.insert("cpu_model".into(), cpu.into());
    m.insert(
        "kernel".into(),
        read_trimmed("/proc/sys/kernel/osrelease").into(),
    );
    m.insert(
        "transparent_hugepage".into(),
        read_trimmed("/sys/kernel/mm/transparent_hugepage/enabled").into(),
    );
    m.insert("workload".into(), workload.into());
    m.insert("seed".into(), seed.into());
    m.insert("jobs".into(), jobs.into());
    m.insert("query_rate_per_s".into(), query_rate.into());
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_vm_hwm_in_mib() {
        let status = "Name:\tperfbench\nVmPeak:\t 9000 kB\nVmHWM:\t  786432 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mb(status), Some(768.0));
    }

    #[test]
    fn rejects_missing_or_malformed_vm_hwm() {
        assert_eq!(parse_vm_hwm_mb("VmRSS:\t1024 kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\t1024 MB\n"), None);
        assert_eq!(parse_vm_hwm_mb("VmHWM:\n"), None);
    }

    #[test]
    fn reads_this_process() {
        assert!(vm_hwm_mb() > 0.0);
    }
}
