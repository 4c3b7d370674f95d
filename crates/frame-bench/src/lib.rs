//! Shared harness utilities for the experiment binaries.
//!
//! Every binary regenerates one artifact of the paper (a table or a
//! figure). They share a tiny argument parser (`--paper`, `--seeds N`,
//! `--sizes a,b,c`, `--out dir`), table formatting, and result
//! serialization. Results are printed as text tables shaped like the
//! paper's, and optionally written as JSON for post-processing.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

use std::fmt::Write as _;
use std::path::PathBuf;

use frame_sim::{ConfigName, SimSchedule};

/// Common command-line options for experiment binaries.
#[derive(Clone, Debug)]
pub struct Options {
    /// Use the paper's full durations and all five workload sizes.
    pub paper: bool,
    /// Number of seeds (runs) per cell.
    pub seeds: u64,
    /// Workload sizes to sweep.
    pub sizes: Vec<usize>,
    /// Where to write JSON results (created if missing).
    pub out: Option<PathBuf>,
}

impl Options {
    /// Parses `std::env::args`, with experiment-appropriate defaults:
    /// compressed schedule, three seeds, the three (or given) workload
    /// sizes.
    ///
    /// # Panics
    ///
    /// Panics with a usage message on malformed arguments.
    pub fn parse(default_sizes: &[usize]) -> Options {
        let mut opts = Options {
            paper: false,
            seeds: 3,
            sizes: default_sizes.to_vec(),
            out: None,
        };
        let mut args = std::env::args().skip(1);
        let (mut explicit_sizes, mut explicit_seeds) = (false, false);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--paper" => opts.paper = true,
                "--seeds" => {
                    opts.seeds = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| usage("--seeds needs an integer"));
                    explicit_seeds = true;
                }
                "--sizes" => {
                    let list = args.next().unwrap_or_else(|| usage("--sizes needs a list"));
                    opts.sizes = list
                        .split(',')
                        .map(|s| s.trim().parse().unwrap_or_else(|_| usage("bad size")))
                        .collect();
                    explicit_sizes = true;
                }
                "--out" => {
                    opts.out = Some(PathBuf::from(
                        args.next().unwrap_or_else(|| usage("--out needs a path")),
                    ));
                }
                "--help" | "-h" => usage(""),
                other => usage(&format!("unknown argument `{other}`")),
            }
        }
        // `--paper` fills in the paper's sweep only where the user did not
        // say otherwise.
        if opts.paper {
            if !explicit_sizes {
                opts.sizes = frame_sim::Workload::PAPER_SIZES.to_vec();
            }
            if !explicit_seeds {
                opts.seeds = opts.seeds.max(10);
            }
        }
        opts
    }

    /// The schedule to use given `--paper` and whether the experiment
    /// injects a crash.
    pub fn schedule(&self, with_crash: bool) -> SimSchedule {
        if self.paper {
            SimSchedule::paper(with_crash)
        } else {
            SimSchedule::compressed(with_crash)
        }
    }

    /// Writes `value` as pretty JSON to `<out>/<name>.json` when `--out`
    /// was given.
    pub fn write_json<T: serde::Serialize>(&self, name: &str, value: &T) {
        let Some(dir) = &self.out else { return };
        std::fs::create_dir_all(dir).expect("create output dir");
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        std::fs::write(&path, json).expect("write results");
        eprintln!("wrote {}", path.display());
    }
}

/// Host facts stamped into every `BENCH_*.json` report so numbers from
/// different runners can be told apart: throughput and fan-in results are
/// meaningless without the core count and the file-descriptor ceiling they
/// were measured under.
#[derive(Clone, Debug, serde::Serialize)]
pub struct HostMeta {
    /// Cores visible to this process (`available_parallelism`).
    pub cores: usize,
    /// Soft `RLIMIT_NOFILE` (0 when unreadable, `u64::MAX` for unlimited).
    pub nofile_soft: u64,
    /// Hard `RLIMIT_NOFILE` (same conventions).
    pub nofile_hard: u64,
    /// `git rev-parse --short HEAD` of the tree the bench was built from
    /// (`"unknown"` outside a checkout).
    pub git_rev: String,
    /// `std::env::consts` OS and architecture, e.g. `"linux/x86_64"`.
    pub os: String,
}

impl HostMeta {
    /// Captures the current host's metadata.
    pub fn capture() -> HostMeta {
        let (nofile_soft, nofile_hard) = nofile_limits();
        HostMeta {
            cores: std::thread::available_parallelism().map_or(0, |n| n.get()),
            nofile_soft,
            nofile_hard,
            git_rev: git_rev(),
            os: format!("{}/{}", std::env::consts::OS, std::env::consts::ARCH),
        }
    }
}

/// Per-role resource cost over one bench run, derived by diffing the
/// process-global [`frame_telemetry`] role profile around the run.
///
/// Counters in the profile table are cumulative for the process lifetime;
/// a bench takes one snapshot before the run and one after and keeps the
/// difference, so repeated runs in the same process stay independent.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RoleCost {
    /// Role name as registered (`reactor-0`, `worker-3`, `detector`, …).
    pub role: String,
    /// Whether the role sits on the per-message hot path.
    pub hot_path: bool,
    /// Heap allocations attributed to the role during the run.
    pub allocs: u64,
    /// Bytes allocated by the role during the run.
    pub alloc_bytes: u64,
    /// `allocs / messages`: allocations this role charges each message.
    pub allocs_per_msg: f64,
    /// Thread CPU time consumed by the role during the run, milliseconds.
    pub cpu_ms: f64,
    /// `read(2)` calls issued by the role during the run.
    pub read_syscalls: u64,
    /// `write(2)` calls issued by the role during the run.
    pub write_syscalls: u64,
}

/// Diffs two role-profile snapshots (see
/// [`frame_telemetry::snapshot_roles`]) taken around a run of `messages`
/// messages, keeping only roles that did something in between.
pub fn role_costs(
    before: &[frame_telemetry::RoleProfileSnapshot],
    after: &[frame_telemetry::RoleProfileSnapshot],
    messages: u64,
) -> Vec<RoleCost> {
    let base = |role: &str, field: fn(&frame_telemetry::RoleProfileSnapshot) -> u64| {
        before.iter().find(|b| b.role == role).map_or(0, field)
    };
    let mut costs = Vec::new();
    for a in after {
        let delta = |field: fn(&frame_telemetry::RoleProfileSnapshot) -> u64| {
            field(a).saturating_sub(base(&a.role, field))
        };
        let cost = RoleCost {
            role: a.role.clone(),
            hot_path: a.hot_path,
            allocs: delta(|r| r.allocs),
            alloc_bytes: delta(|r| r.alloc_bytes),
            allocs_per_msg: delta(|r| r.allocs) as f64 / messages.max(1) as f64,
            cpu_ms: delta(|r| r.cpu_ns) as f64 / 1e6,
            read_syscalls: delta(|r| r.read_syscalls),
            write_syscalls: delta(|r| r.write_syscalls),
        };
        if cost.allocs > 0 || cost.cpu_ms > 0.0 || cost.read_syscalls > 0 || cost.write_syscalls > 0
        {
            costs.push(cost);
        }
    }
    costs
}

/// Sum of [`RoleCost::allocs_per_msg`] over hot-path roles: the headline
/// allocations-per-message figure a perf gate watches.
pub fn hot_path_allocs_per_msg(costs: &[RoleCost]) -> f64 {
    costs
        .iter()
        .filter(|c| c.hot_path)
        .map(|c| c.allocs_per_msg)
        .sum()
}

/// Reads the open-file limits from `/proc/self/limits`; `(0, 0)` when the
/// file is unreadable (non-Linux).
fn nofile_limits() -> (u64, u64) {
    let Ok(text) = std::fs::read_to_string("/proc/self/limits") else {
        return (0, 0);
    };
    for line in text.lines() {
        if let Some(rest) = line.strip_prefix("Max open files") {
            let parse = |v: Option<&str>| match v {
                Some("unlimited") => u64::MAX,
                Some(n) => n.parse().unwrap_or(0),
                None => 0,
            };
            let mut it = rest.split_whitespace();
            return (parse(it.next()), parse(it.next()));
        }
    }
    (0, 0)
}

fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn usage(msg: &str) -> ! {
    if !msg.is_empty() {
        eprintln!("error: {msg}");
    }
    eprintln!(
        "usage: <experiment> [--paper] [--seeds N] [--sizes a,b,c] [--out DIR]\n\
         \n\
         --paper   full paper durations (35s warmup, 60s measure) and all\n\
         \t  five workload sizes {{1525,4525,7525,10525,13525}}; seeds >= 10\n\
         --seeds   runs per cell (default 3)\n\
         --sizes   comma-separated workload sizes\n\
         --out     directory for JSON results"
    );
    std::process::exit(2)
}

/// A plain-text table builder shaped like the paper's tables.
#[derive(Clone, Debug, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        TextTable {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (w, c) in widths.iter_mut().zip(row) {
                *w = (*w).max(c.chars().count());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, (c, w)) in cells.iter().zip(&widths).enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let pad = w - c.chars().count();
                out.push_str(c);
                for _ in 0..pad {
                    out.push(' ');
                }
            }
            out.push('\n');
        };
        line(&mut out, &self.header);
        let total: usize = widths.iter().sum::<usize>() + 2 * (widths.len() - 1);
        let _ = writeln!(out, "{}", "-".repeat(total));
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Formats a `mean ± ci` success-rate cell like the paper (e.g. `100.0`,
/// `80.0 ± 30.1`).
pub fn fmt_rate(mean: f64, ci: f64) -> String {
    if ci < 0.05 {
        format!("{mean:.1}")
    } else {
        format!("{mean:.1} ± {ci:.1}")
    }
}

/// The `(D_i, L_i)` row labels of the paper's Tables 4 and 5, with the
/// category index each corresponds to.
pub const TABLE_ROWS: [(&str, &str, u8); 6] = [
    ("50", "0", 0),
    ("50", "3", 1),
    ("100", "0", 2),
    ("100", "3", 3),
    ("100", "inf", 4),
    ("500", "0", 5),
];

/// All four configurations in the paper's column order.
pub const CONFIGS: [ConfigName; 4] = ConfigName::ALL;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = TextTable::new(vec!["a", "bbbb"]);
        t.row(vec!["x", "y"]);
        t.row(vec!["longer", "z"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("a     "));
        assert!(lines[1].starts_with("---"));
        assert!(lines[3].starts_with("longer"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn table_rejects_ragged_rows() {
        let mut t = TextTable::new(vec!["a"]);
        t.row(vec!["x", "y"]);
    }

    #[test]
    fn rate_formatting() {
        assert_eq!(fmt_rate(100.0, 0.0), "100.0");
        assert_eq!(fmt_rate(80.0, 30.1), "80.0 ± 30.1");
        assert_eq!(fmt_rate(99.9, 0.01), "99.9");
    }

    #[test]
    fn host_meta_captures_plausible_facts() {
        let m = HostMeta::capture();
        assert!(m.cores >= 1);
        assert!(m.os.contains('/'));
        assert!(!m.git_rev.is_empty());
        if cfg!(target_os = "linux") {
            assert!(m.nofile_soft > 0, "limits file parses on Linux");
            assert!(m.nofile_hard >= m.nofile_soft);
        }
    }

    #[test]
    fn role_costs_diff_against_baseline_and_roll_up_hot_path() {
        let snap = |role: &str, hot_path: bool, allocs: u64, cpu_ns: u64| {
            frame_telemetry::RoleProfileSnapshot {
                role: role.to_string(),
                allocs,
                deallocs: 0,
                alloc_bytes: allocs * 64,
                dealloc_bytes: 0,
                current_bytes: 0,
                peak_bytes: 0,
                cpu_ns,
                read_syscalls: 0,
                write_syscalls: 0,
                hot_path,
            }
        };
        let before = vec![snap("worker-0", true, 100, 1_000_000)];
        let after = vec![
            snap("worker-0", true, 300, 5_000_000),
            snap("reactor-0", true, 50, 0),
            snap("sampler", false, 10, 0),
            snap("detector", false, 0, 0), // idle: dropped from the diff
        ];
        let costs = role_costs(&before, &after, 100);
        assert_eq!(costs.len(), 3, "idle roles are dropped");
        let worker = costs.iter().find(|c| c.role == "worker-0").unwrap();
        assert_eq!(worker.allocs, 200, "baseline subtracted");
        assert!((worker.allocs_per_msg - 2.0).abs() < 1e-9);
        assert!((worker.cpu_ms - 4.0).abs() < 1e-9);
        // Hot-path roll-up: worker (2.0) + reactor (0.5), sampler excluded.
        assert!((hot_path_allocs_per_msg(&costs) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn table_rows_cover_all_categories() {
        let cats: Vec<u8> = TABLE_ROWS.iter().map(|&(_, _, c)| c).collect();
        assert_eq!(cats, vec![0, 1, 2, 3, 4, 5]);
    }
}
