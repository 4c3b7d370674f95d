//! `frame-cli` — run FRAME brokers, publishers and subscribers over TCP.
//!
//! ```text
//! frame-cli admit     --manifest topics.json
//! frame-cli broker    --manifest topics.json --listen 0.0.0.0:7400
//!                     [--role primary|backup] [--config frame|fcfs|fcfs-]
//!                     [--backup-addr host:port]
//!                     [--obs host:port]     # /metrics /healthz /series /profile
//! frame-cli publish   --manifest topics.json --addr host:port
//!                     [--publisher-id N] [--rounds N]
//! frame-cli subscribe --addr host:port --subscriber-id N [--count N]
//! frame-cli stats     --addr host:port [--format pretty|json|prometheus]
//!                     [--watch SECS]
//! frame-cli top       --addr host:port [--interval SECS] [--once]
//! frame-cli trace     --addr host:port | --dump path/flight.jsonl
//!                     [--format pretty|json] [--detail N] [--topic N --seq N]
//! frame-cli chaos run plan.toml [--seed N] [--out dir]
//! frame-cli example-manifest            # print the paper's Table 2
//! ```

mod commands;
mod manifest;

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use commands::{
    cmd_admit, cmd_broker, cmd_chaos, cmd_publish, cmd_stats, cmd_stats_watch, cmd_subscribe,
    cmd_top, cmd_trace, parse_config, TraceSource,
};
use frame_core::BrokerRole;
use manifest::Manifest;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => std::process::exit(code),
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    }
}

/// The flags each subcommand reads (`None` for an unknown subcommand).
/// Any other `--`-prefixed argument is an error rather than silently
/// ignored, so a misspelled or retired flag cannot quietly fall back to a
/// default.
fn known_flags(cmd: &str) -> Option<&'static [&'static str]> {
    Some(match cmd {
        "admit" => &["--manifest"],
        "broker" => &[
            "--manifest",
            "--listen",
            "--role",
            "--config",
            "--backup-addr",
            "--obs",
        ],
        "publish" => &["--manifest", "--addr", "--publisher-id", "--rounds"],
        "subscribe" => &["--addr", "--subscriber-id", "--count"],
        "stats" => &["--addr", "--format", "--watch"],
        "top" => &["--addr", "--interval", "--once"],
        "trace" => &[
            "--addr", "--dump", "--format", "--detail", "--topic", "--seq",
        ],
        "detector" => &["--primary", "--backup", "--interval-ms", "--timeout-ms"],
        "chaos" => &["--seed", "--out"],
        "example-manifest" | "--help" | "-h" | "help" => &[],
        _ => return None,
    })
}

struct Flags(Vec<String>);

impl Flags {
    /// Wraps `cmd`'s arguments, rejecting any `--` flag it does not read.
    fn parse(cmd: &str, args: &[String]) -> Result<Flags, String> {
        if let Some(known) = known_flags(cmd) {
            if let Some(bad) = args
                .iter()
                .find(|a| a.starts_with("--") && !known.contains(&a.as_str()))
            {
                return Err(format!("unknown flag `{bad}` for `{cmd}`\n{}", usage()));
            }
        }
        Ok(Flags(args.to_vec()))
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn has(&self, name: &str) -> bool {
        self.0.iter().any(|a| a == name)
    }

    fn require(&self, name: &str) -> Result<&str, String> {
        self.get(name).ok_or_else(|| format!("missing {name}"))
    }
}

fn run(args: &[String]) -> Result<i32, String> {
    let Some(cmd) = args.first() else {
        return Err(usage());
    };
    let flags = Flags::parse(cmd, &args[1..])?;
    match cmd.as_str() {
        "admit" => {
            let m = Manifest::load(flags.require("--manifest")?)?;
            let rejected = cmd_admit(&m, &mut std::io::stdout()).map_err(|e| e.to_string())?;
            Ok(if rejected == 0 { 0 } else { 1 })
        }
        "broker" => {
            let m = Manifest::load(flags.require("--manifest")?)?;
            let listen = flags.get("--listen").unwrap_or("127.0.0.1:7400");
            let role = match flags.get("--role").unwrap_or("primary") {
                "primary" => BrokerRole::Primary,
                "backup" => BrokerRole::Backup,
                other => return Err(format!("unknown role `{other}`")),
            };
            let config = parse_config(flags.get("--config").unwrap_or("frame"))?;
            let backup_addr: Option<SocketAddr> = match flags.get("--backup-addr") {
                Some(a) => Some(a.parse().map_err(|_| "bad --backup-addr".to_owned())?),
                None => None,
            };
            let running = cmd_broker(&m, listen, role, config, backup_addr, flags.get("--obs"))?;
            eprintln!(
                "broker listening on {} ({:?}, {} topics); Ctrl-C to stop",
                running.server.local_addr(),
                running.broker.role(),
                m.topics.len()
            );
            if let Some((_, obs)) = &running.obs {
                eprintln!(
                    "observability on http://{} (/metrics /healthz /series /profile)",
                    obs.local_addr()
                );
            }
            // Serve until the process is killed; the RunningBroker's
            // threads (and its shutdown path, used by tests) stay alive
            // for the process lifetime.
            loop {
                std::thread::sleep(std::time::Duration::from_secs(3600));
                if !running.broker.is_alive() {
                    running.shutdown();
                    return Ok(0);
                }
            }
        }
        "publish" => {
            let m = Manifest::load(flags.require("--manifest")?)?;
            let addr: SocketAddr = flags
                .require("--addr")?
                .parse()
                .map_err(|_| "bad --addr".to_owned())?;
            let publisher_id: u32 = flags
                .get("--publisher-id")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "bad --publisher-id".to_owned())?;
            let rounds: u64 = flags
                .get("--rounds")
                .unwrap_or("18446744073709551615")
                .parse()
                .map_err(|_| "bad --rounds".to_owned())?;
            let stop: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
            let sent = cmd_publish(&m, addr, publisher_id, rounds, &stop)?;
            eprintln!("published {sent} messages");
            Ok(0)
        }
        "subscribe" => {
            let addr: SocketAddr = flags
                .require("--addr")?
                .parse()
                .map_err(|_| "bad --addr".to_owned())?;
            let id: u32 = flags
                .require("--subscriber-id")?
                .parse()
                .map_err(|_| "bad --subscriber-id".to_owned())?;
            let count: u64 = flags
                .get("--count")
                .unwrap_or("18446744073709551615")
                .parse()
                .map_err(|_| "bad --count".to_owned())?;
            let stop: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
            let n = cmd_subscribe(addr, id, count, &stop, &mut std::io::stdout())?;
            eprintln!("received {n} messages");
            let _ = stop.load(Ordering::Acquire);
            Ok(0)
        }
        "stats" => {
            let addr: SocketAddr = flags
                .require("--addr")?
                .parse()
                .map_err(|_| "bad --addr".to_owned())?;
            let format = flags.get("--format").unwrap_or("pretty");
            match flags.get("--watch") {
                None => cmd_stats(addr, format, &mut std::io::stdout())?,
                Some(secs) => {
                    let secs = parse_interval_secs("--watch", secs)?;
                    let stop: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
                    cmd_stats_watch(
                        addr,
                        format,
                        std::time::Duration::from_secs(secs),
                        u64::MAX,
                        &stop,
                        &mut std::io::stdout(),
                    )?;
                }
            }
            Ok(0)
        }
        "top" => {
            let addr: SocketAddr = flags
                .require("--addr")?
                .parse()
                .map_err(|_| "bad --addr".to_owned())?;
            let once = flags.has("--once");
            let interval = match flags.get("--interval") {
                // --once differentiates two snapshots a short window apart.
                None if once => std::time::Duration::from_millis(200),
                None => std::time::Duration::from_secs(2),
                Some(secs) => {
                    std::time::Duration::from_secs(parse_interval_secs("--interval", secs)?)
                }
            };
            let stop: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
            let rounds = if once { 1 } else { u64::MAX };
            cmd_top(addr, interval, rounds, !once, &stop, &mut std::io::stdout())?;
            Ok(0)
        }
        "trace" => {
            let format = flags.get("--format").unwrap_or("pretty");
            let detail: usize = flags
                .get("--detail")
                .unwrap_or("5")
                .parse()
                .map_err(|_| "bad --detail".to_owned())?;
            let find = match (flags.get("--topic"), flags.get("--seq")) {
                (Some(t), Some(s)) => Some((
                    t.parse().map_err(|_| "bad --topic".to_owned())?,
                    s.parse().map_err(|_| "bad --seq".to_owned())?,
                )),
                (None, None) => None,
                _ => return Err("--topic and --seq must be given together".to_owned()),
            };
            if let Some(dump) = flags.get("--dump") {
                cmd_trace(
                    TraceSource::Dump(std::path::Path::new(dump)),
                    format,
                    detail,
                    find,
                    &mut std::io::stdout(),
                )?;
            } else {
                let addr: SocketAddr = flags
                    .require("--addr")?
                    .parse()
                    .map_err(|_| "bad --addr".to_owned())?;
                cmd_trace(
                    TraceSource::Addr(addr),
                    format,
                    detail,
                    find,
                    &mut std::io::stdout(),
                )?;
            }
            Ok(0)
        }
        "detector" => {
            let primary: SocketAddr = flags
                .require("--primary")?
                .parse()
                .map_err(|_| "bad --primary".to_owned())?;
            let backup: SocketAddr = flags
                .require("--backup")?
                .parse()
                .map_err(|_| "bad --backup".to_owned())?;
            let interval_ms: u64 = flags
                .get("--interval-ms")
                .unwrap_or("10")
                .parse()
                .map_err(|_| "bad --interval-ms".to_owned())?;
            let timeout_ms: u64 = flags
                .get("--timeout-ms")
                .unwrap_or("30")
                .parse()
                .map_err(|_| "bad --timeout-ms".to_owned())?;
            let stop: Arc<AtomicBool> = Arc::new(AtomicBool::new(false));
            match commands::cmd_detector(
                primary,
                backup,
                std::time::Duration::from_millis(interval_ms),
                std::time::Duration::from_millis(timeout_ms),
                &stop,
            )? {
                Some(n) => {
                    eprintln!("primary crashed; backup promoted ({n} recovery dispatches)");
                    Ok(0)
                }
                None => Ok(0),
            }
        }
        "chaos" => {
            // `chaos run <plan.toml> --seed N [--out DIR]`
            match args.get(1).map(String::as_str) {
                Some("run") => {}
                Some(other) => return Err(format!("unknown chaos subcommand `{other}`")),
                None => {
                    return Err(
                        "usage: frame-cli chaos run PLAN.toml [--seed N] [--out DIR]".to_owned(),
                    )
                }
            }
            let plan = args
                .get(2)
                .filter(|a| !a.starts_with("--"))
                .ok_or("missing plan path: frame-cli chaos run PLAN.toml")?;
            let seed: u64 = flags
                .get("--seed")
                .unwrap_or("0")
                .parse()
                .map_err(|_| "bad --seed".to_owned())?;
            let out_dir = flags.get("--out").map(std::path::Path::new);
            cmd_chaos(
                std::path::Path::new(plan),
                seed,
                out_dir,
                &mut std::io::stdout(),
            )
        }
        "example-manifest" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&Manifest::table2()).expect("serialize")
            );
            Ok(0)
        }
        "--help" | "-h" | "help" => {
            eprintln!("{}", usage());
            Ok(0)
        }
        other => Err(format!("unknown command `{other}`\n{}", usage())),
    }
}

/// Parses a watch/refresh interval given in whole seconds, rejecting 0:
/// a zero interval used to parse fine and then spin the watch loop flat
/// out against the broker (see `commands::WATCH_FLOOR` for the
/// library-level backstop).
fn parse_interval_secs(flag: &str, value: &str) -> Result<u64, String> {
    let secs: u64 = value.parse().map_err(|_| format!("bad {flag}"))?;
    if secs == 0 {
        return Err(format!(
            "{flag} 0 would busy-loop against the broker; use {flag} >= 1"
        ));
    }
    Ok(secs)
}

fn usage() -> String {
    "usage:\n  frame-cli admit     --manifest topics.json\n  \
     frame-cli broker    --manifest topics.json --listen ADDR [--role primary|backup]\n            \
     \u{20}         [--config frame|fcfs|fcfs-] [--backup-addr ADDR]\n            \
     \u{20}         [--obs ADDR]\n  \
     frame-cli publish   --manifest topics.json --addr ADDR [--publisher-id N] [--rounds N]\n  \
     frame-cli subscribe --addr ADDR --subscriber-id N [--count N]\n  \
     frame-cli stats     --addr ADDR [--format pretty|json|prometheus] [--watch SECS]\n  \
     frame-cli top       --addr ADDR [--interval SECS] [--once]\n  \
     frame-cli trace     --addr ADDR | --dump PATH [--format pretty|json]\n            \
     \u{20}         [--detail N] [--topic N --seq N]\n  \
     frame-cli detector  --primary ADDR --backup ADDR [--interval-ms N] [--timeout-ms N]\n  \
     frame-cli chaos run PLAN.toml [--seed N] [--out DIR]\n  \
     frame-cli example-manifest"
        .to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_strs(args: &[&str]) -> Result<i32, String> {
        let args: Vec<String> = args.iter().map(ToString::to_string).collect();
        run(&args)
    }

    #[test]
    fn zero_watch_and_interval_are_rejected_at_parse_time() {
        // The address never gets connected: the interval is validated
        // first, so a bogus port is fine.
        let err = run_strs(&["stats", "--addr", "127.0.0.1:9", "--watch", "0"]).unwrap_err();
        assert!(err.contains("--watch 0 would busy-loop"), "got: {err}");
        let err = run_strs(&["top", "--addr", "127.0.0.1:9", "--interval", "0"]).unwrap_err();
        assert!(err.contains("--interval 0 would busy-loop"), "got: {err}");
        // Non-numeric still reads as a parse error, not a busy-loop one.
        let err = run_strs(&["stats", "--addr", "127.0.0.1:9", "--watch", "x"]).unwrap_err();
        assert_eq!(err, "bad --watch");
        // And a sane value passes the parser.
        assert_eq!(parse_interval_secs("--watch", "3"), Ok(3));
    }

    #[test]
    fn unknown_flags_are_rejected_by_name() {
        // Rejected before the manifest is read, so the path need not exist.
        let err =
            run_strs(&["broker", "--manifest", "t.json", "--ingress", "threaded"]).unwrap_err();
        assert!(
            err.starts_with("unknown flag `--ingress` for `broker`"),
            "got: {err}"
        );
        // There is no pool to size: jobs run on the reactor loops that
        // admit them.
        let err = run_strs(&["broker", "--manifest", "t.json", "--workers", "6"]).unwrap_err();
        assert!(
            err.starts_with("unknown flag `--workers` for `broker`"),
            "got: {err}"
        );
        let err = run_strs(&["stats", "--addr", "127.0.0.1:9", "--wacth", "3"]).unwrap_err();
        assert!(err.starts_with("unknown flag `--wacth`"), "got: {err}");
        // Positional arguments and boolean flags are not flags to reject.
        let err = run_strs(&["chaos", "run", "missing.toml", "--seed", "1"]).unwrap_err();
        assert!(!err.contains("unknown flag"), "got: {err}");
        let err = run_strs(&["top", "--once", "--addr", "bogus"]).unwrap_err();
        assert_eq!(err, "bad --addr");
    }

    /// Every `frame-cli` flag in `text`, paired with its subcommand: the
    /// first non-dash token after `frame-cli` names the subcommand, and
    /// flags run until a shell comment, pipe or redirect ends the command.
    /// Backslash-continued lines are joined first.
    fn spelled_flags(text: &str) -> Vec<(String, String)> {
        let joined = text.replace("\\\n", " ");
        let mut found = Vec::new();
        for line in joined.lines() {
            let mut tokens = line.split_whitespace().skip_while(|t| *t != "frame-cli");
            let Some(sub) = tokens.find(|t| known_flags(t).is_some() && !t.starts_with('-')) else {
                continue;
            };
            for t in tokens.take_while(|t| !matches!(*t, "#" | "|" | ">" | "&" | "&&" | ";")) {
                if t.starts_with("--") {
                    found.push((sub.to_owned(), t.to_owned()));
                }
            }
        }
        found
    }

    #[test]
    fn flags_spelled_in_readme_ci_and_benchmark_are_accepted() {
        let mut spelled = spelled_flags(include_str!("../../../README.md"));
        spelled.extend(spelled_flags(include_str!(
            "../../../.github/workflows/ci.yml"
        )));
        // The benchmark's broker launcher passes its flags as string
        // literals to `Command::args`.
        let proc_rs = include_str!("../../../e2ebench/src/proc.rs");
        let launcher: Vec<&str> = proc_rs
            .split('"')
            .skip(1)
            .step_by(2)
            .filter(|lit| lit.starts_with("--"))
            .collect();
        for flag in ["--manifest", "--listen", "--backup-addr", "--role"] {
            assert!(launcher.contains(&flag), "launcher passes {flag}");
        }
        spelled.extend(
            launcher
                .iter()
                .map(|f| ("broker".to_owned(), (*f).to_owned())),
        );
        for sub in ["broker", "stats", "top", "trace", "chaos"] {
            assert!(
                spelled.iter().any(|(s, _)| s == sub),
                "no `{sub}` invocation found"
            );
        }
        for (sub, flag) in &spelled {
            let args = [flag.clone()];
            assert!(
                Flags::parse(sub, &args).is_ok(),
                "`frame-cli {sub} {flag}` is documented but rejected"
            );
        }
    }
}
