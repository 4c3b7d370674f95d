//! Broker processes and what `/proc` says about them.
//!
//! [`BrokerProc`] owns one `frame-cli broker` child and kills and reaps it
//! when dropped, so every exit path — an error, a failed check, a panic —
//! leaves no broker behind to skew the next run.

use std::fs::File;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

extern "C" {
    pub fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}

/// `PR_SET_PDEATHSIG` from `<linux/prctl.h>`.
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

/// A running `frame-cli broker`.
pub struct BrokerProc {
    child: Child,
    pub addr: SocketAddr,
    pub pid: u32,
    /// Where the broker's stderr goes (kept for diagnosing a failed run).
    pub log: PathBuf,
}

impl BrokerProc {
    /// Starts a broker on an ephemeral loopback port with its defaults
    /// (FRAME config, reactor ingress, default workers) and returns once it
    /// listens — after every manifest topic is registered. Its stderr goes
    /// to `log`.
    pub fn spawn(
        cli: &Path,
        manifest: &Path,
        backup: Option<SocketAddr>,
        log: PathBuf,
    ) -> Result<Self, String> {
        let mut cmd = Command::new(cli);
        cmd.arg("broker")
            .arg("--manifest")
            .arg(manifest)
            .args(["--listen", "127.0.0.1:0"]);
        match backup {
            Some(addr) => cmd.args(["--backup-addr", &addr.to_string()]),
            None => cmd.args(["--role", "backup"]),
        };
        // SAFETY: the closure runs in the forked child before exec and only
        // makes the async-signal-safe prctl call.
        unsafe {
            cmd.pre_exec(|| {
                // The kernel kills the broker if this thread dies, so not
                // even a SIGKILL of the benchmark leaves a broker behind.
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let stderr = File::create(&log).map_err(|e| format!("{}: {e}", log.display()))?;
        let mut child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cli.display()))?;
        let pid = child.id();
        let deadline = Instant::now() + Duration::from_secs(30);
        let addr = loop {
            let text = std::fs::read_to_string(&log).unwrap_or_default();
            // Complete lines only: the broker may be mid-write.
            let done = &text[..text.rfind('\n').map_or(0, |i| i + 1)];
            if let Some(rest) = done
                .lines()
                .find_map(|l| l.strip_prefix("broker listening on "))
            {
                let addr = rest.split_whitespace().next().unwrap_or_default();
                break addr
                    .parse()
                    .map_err(|_| format!("unparsable listen line: {rest}"))?;
            }
            if !matches!(child.try_wait(), Ok(None)) || Instant::now() > deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("broker did not come up: {}", text.trim()));
            }
            std::thread::sleep(Duration::from_micros(200));
        };
        Ok(BrokerProc {
            child,
            addr,
            pid,
            log,
        })
    }

    /// The last lines the broker wrote to stderr.
    pub fn log_tail(&self) -> String {
        let text = std::fs::read_to_string(&self.log).unwrap_or_default();
        let lines: Vec<&str> = text.lines().collect();
        lines[lines.len().saturating_sub(5)..].join(" | ")
    }

    /// `SIGKILL`s the broker (a fail-stop crash); reaped on drop.
    pub fn kill(&mut self) {
        let _ = self.child.kill();
    }

    /// CPU seconds its threads have run so far, or `None` once reaped.
    pub fn cpu_s(&self) -> Option<f64> {
        cpu_seconds(self.pid)
    }

    /// Peak resident set (`VmHWM`) in bytes.
    pub fn peak_rss_bytes(&self) -> Option<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid)).ok()?;
        let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
        let kib: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
        Some(kib * 1024)
    }
}

impl Drop for BrokerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// CPU seconds process `pid` has run: the sum of its threads'
/// `schedstat` run times (ns resolution, where `/proc/<pid>/stat` counts
/// 10 ms ticks).
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    let mut ns = 0u64;
    for task in std::fs::read_dir(format!("/proc/{pid}/task")).ok()? {
        let Ok(task) = task else { continue };
        let Ok(stat) = std::fs::read_to_string(task.path().join("schedstat")) else {
            continue;
        };
        ns += stat
            .split_whitespace()
            .next()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0);
    }
    Some(ns as f64 / 1e9)
}

/// This process's CPU seconds so far.
pub fn self_cpu_s() -> f64 {
    cpu_seconds(std::process::id()).unwrap_or(0.0)
}

/// Host-wide `(stolen, total)` CPU ticks from the first line of
/// `/proc/stat`.
pub fn host_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .take(8)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0), ticks.iter().sum())
}

/// Share of the host's CPU time the hypervisor stole between two
/// [`host_ticks`] readings.
pub fn steal_share(from: (u64, u64), to: (u64, u64)) -> f64 {
    let total = to.1.saturating_sub(from.1);
    if total == 0 {
        0.0
    } else {
        to.0.saturating_sub(from.0) as f64 / total as f64
    }
}
