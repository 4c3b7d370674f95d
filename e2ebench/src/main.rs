//! `frame-e2ebench`: one seeded run of a named workload against a
//! `frame-cli` Primary+Backup pair over loopback TCP.
//!
//! ```text
//! frame-e2ebench --workload table2_mix|camera_16k|failover --seed N
//!                --seconds S --trace 0|1 --cli PATH --target DIR
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and the metrics — the end-to-end set with
//! `--trace 0`, the per-layer set with `--trace 1`. The human-readable
//! report (including the waterfall) goes to standard error. See
//! `README.md` beside this crate for every metric.

mod check;
mod loadgen;
mod proc;
mod replay;
mod run;
mod stats;
mod workload;

use std::path::PathBuf;

use check::{quantile, supported_percentile, Verdict};
use frame_telemetry::Stage;
use run::{Ctx, Cycle, Window};
use workload::Kind;

/// Topics whose histograms a Primary can still return through
/// `WireMsg::Stats`: the pretty-printed snapshot grows by ~36 KB per
/// registered topic and the broker drops the reply past the 16 MiB frame
/// limit (about 460 topics). Per-layer counters of a workload above this
/// come from a window of this many topics; the failed fetch at the
/// nominal load is counted in `stats.fetch_failures`.
const STATS_TOPIC_LIMIT: usize = 400;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    cli: PathBuf,
    target: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |k: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == k)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or_else(|| format!("missing {k}"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        kind: Kind::parse(workload).ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("--seed")?.parse().map_err(|_| "bad --seed")?,
        seconds: get("--seconds")?.parse().map_err(|_| "bad --seconds")?,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace `{other}`")),
        },
        cli: PathBuf::from(get("--cli")?),
        target: PathBuf::from(get("--target")?),
    })
}

fn main() {
    match parse_args().and_then(|a| bench(&a)) {
        Ok(()) => {}
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(1);
        }
    }
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Largest topic count the ladder may reach: above where the generator
/// runs out of CPU on the 2-vCPU reference host.
fn ladder_max(kind: Kind) -> usize {
    match kind {
        Kind::Camera16k => 48,
        Kind::Table2Mix | Kind::Failover => 7200,
    }
}

/// Kill cycles per run with the nominal manifest, each also one set-up
/// and one failover-gap sample. The failover workload adds one more cycle
/// whose manifest also holds the ladder's topics; it counts toward the
/// delivery checks but not toward the set-up, gap and RSS figures, which
/// depend on the manifest's size.
const CYCLES: usize = 15;

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn p_ms(lat: &mut [u64], q: f64) -> f64 {
    quantile(lat, q) as f64 / 1e6
}

/// The items measured while the hypervisor stole the least host CPU time:
/// those within 2 points of steal of the calmest, widened to at least the
/// calmer half. Wall-clock figures from a shared host's noisy seconds
/// measure its other tenants, not the program.
fn calm<T>(items: &[T], steal: impl Fn(&T) -> f64) -> Vec<&T> {
    let mut sorted: Vec<&T> = items.iter().collect();
    sorted.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    let Some(first) = sorted.first() else {
        return sorted;
    };
    let threshold = (steal(first) + 0.02).max(steal(sorted[(sorted.len() - 1) / 2]));
    sorted.retain(|i| steal(i) <= threshold);
    sorted
}

/// Sums the counts of several verdicts and concatenates their samples.
fn merge(verdicts: impl Iterator<Item = Verdict>) -> Verdict {
    let mut m = Verdict::default();
    for v in verdicts {
        m.attempted += v.attempted;
        m.failed += v.failed;
        m.lost += v.lost;
        m.duplicated += v.duplicated;
        m.reordered += v.reordered;
        m.corrupted += v.corrupted;
        m.stray += v.stray;
        m.tolerated_losses += v.tolerated_losses;
        m.dups_suppressed += v.dups_suppressed;
        m.deadline_met += v.deadline_met;
        m.topics += v.topics;
        m.topics_loss_ok += v.topics_loss_ok;
        m.samples.extend(v.samples);
    }
    m
}

fn bench(a: &Args) -> Result<(), String> {
    let ctx = Ctx {
        cli: a.cli.clone(),
        dir: run::run_dir(&a.target, a.kind, a.seed)?,
        kind: a.kind,
        seed: a.seed,
        seconds: a.seconds,
        epoch: loadgen::Epoch::new(),
    };
    let kind = a.kind;
    loadgen::tighten_timer_slack();
    let nominal = ctx.topics(kind.nominal_topics());
    let all = ctx.topics(ladder_max(kind));
    eprintln!(
        "e2ebench: workload {} seed {} seconds {} trace {} on {} cpus",
        kind.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Kill cycles. The failover workload's last cycle registers the
    // ladder's topics too, and climbs the ladder on the promoted Backup.
    let mut cycles: Vec<Cycle> = Vec::new();
    let mut rungs = Vec::new();
    let base = workload::Kind::Table2Mix.nominal_topics();
    let climb_cycle = kind == Kind::Failover && !a.trace;
    let total_cycles = CYCLES + usize::from(climb_cycle);
    for i in 0..total_cycles {
        let climb = climb_cycle && i + 1 == total_cycles;
        let manifest = if climb { &all } else { &nominal };
        let after: Option<run::AfterCycle<'_>> = if climb {
            let (ctx, all, rungs) = (&ctx, &all, &mut rungs);
            Some(Box::new(move |session: &mut loadgen::Session| {
                *rungs = run::ladder(ctx, session, all, base);
                Ok(())
            }))
        } else {
            None
        };
        let c = run::kill_cycle(&ctx, i as u64, &nominal, manifest, after)?;
        eprintln!(
            "cycle {i}: steal {:.3}, cpu {:.1} us/msg, setup {:.4} s, gap {:?} ms, detect {:.3} ms, promote rtt {:.3} ms, resume {:.3} ms, recovered {}, offered {}, failed {} (lost {}, dup {}, reorder {}, corrupt {}), tolerated {}, dups suppressed {}",
            c.steal, c.cpu_s * 1e6 / c.offered.max(1) as f64, c.setup_s, c.gap_ms, c.detect_ms, c.promote_rtt_ms, c.resume_ms, c.recovered, c.offered,
            c.verdict.failed, c.verdict.lost, c.verdict.duplicated, c.verdict.reordered,
            c.verdict.corrupted, c.verdict.tolerated_losses, c.verdict.dups_suppressed
        );
        cycles.push(c);
    }

    if a.trace {
        return per_layer(&ctx, &nominal, &cycles);
    }

    // The steady window, then the ladder on a fresh pair.
    let window = match kind {
        Kind::Failover => None,
        Kind::Table2Mix | Kind::Camera16k => {
            Some(run::steady_window(&ctx, &nominal, a.seconds, false, false)?)
        }
    };
    if window.is_some() {
        rungs = run::ladder_on_fresh_pair(&ctx, &all, nominal.len())?;
    }
    for r in &rungs {
        eprintln!(
            "rung {:>5} topics {:>9.1} msgs/s {} {}",
            r.topics,
            r.msgs_s,
            if r.pass { "pass" } else { "FAIL" },
            r.why
        );
    }
    let sustained = run::sustained(&rungs);

    let measured = &cycles[..CYCLES];
    let mut setups: Vec<f64> = measured.iter().map(|c| c.setup_s).collect();
    if measured.iter().any(|c| c.gap_ms.is_none()) {
        return Err("a kill cycle saw no delivery from the promoted Backup".to_owned());
    }
    // Latency p50 and the failover gap are medians over the calm slices
    // (seconds of the window, or kill cycles). Broker CPU/msg and the
    // failover gap are printed here and gated nowhere: the host's speed
    // regime (it flips between two, ~45 % apart, every few seconds) moves
    // them more than any bound admits; `pair.cpu_us_per_msg` and
    // `failover.gap_ms` carry them per layer.
    let calm_cycles = calm(measured, |c| c.steal);
    let gaps: Vec<f64> = calm_cycles.iter().filter_map(|c| c.gap_ms).collect();
    let (verdict, p50_ns, cpu_per_msg, rss, lag) = match &window {
        Some(w) => {
            setups.push(w.setup_s);
            for (i, s) in w.slices.iter().enumerate() {
                eprintln!(
                    "second {i}: steal {:.3}, p50 {:.4} ms, broker cpu {:.2} us/msg",
                    s.steal,
                    s.p50_ns as f64 / 1e6,
                    s.cpu_s * 1e6 / s.offered.max(1) as f64
                );
            }
            let calm = calm(&w.slices, |s| s.steal);
            (
                w.verdict.clone(),
                median(calm.iter().map(|s| s.p50_ns as f64).collect()),
                w.cpu_us_per_msg(),
                w.rss_bytes as f64,
                w.lag_ns.clone(),
            )
        }
        None => (
            merge(cycles.iter().map(|c| c.verdict.clone())),
            quantile(
                &mut calm_cycles
                    .iter()
                    .flat_map(|c| c.verdict.latencies_ns())
                    .collect::<Vec<_>>(),
                0.5,
            ) as f64,
            measured.iter().map(|c| c.cpu_s).sum::<f64>() * 1e6
                / measured.iter().map(|c| c.offered).sum::<u64>().max(1) as f64,
            median(measured.iter().map(|c| c.rss_bytes as f64).collect()),
            cycles
                .iter()
                .flat_map(|c| c.lag_ns.iter().copied())
                .collect(),
        ),
    };
    eprintln!("broker cpu {cpu_per_msg:.2} us/msg (both processes, all slices)");
    eprintln!(
        "failover gap {:.3} ms (SIGKILL -> first delivery from the promoted Backup, median of {} calm cycles)",
        median(gaps),
        calm_cycles.len()
    );
    let mut lat = verdict.latencies_ns();
    let pct = supported_percentile(lat.len());
    let mut lag = lag;
    let lag_q = quantile(&mut lag, run::LAG_QUANTILE);
    let lag_p99 = quantile(&mut lag, 0.99);
    eprintln!(
        "latency: {} samples, p50 {:.4} ms, p99 {:.4} ms, p{pct} {:.4} ms (highest percentile with >= 10 samples beyond; p99 is reported here only, its run-to-run spread on a shared 2-vCPU host exceeds any admissible regression bound)",
        lat.len(),
        p_ms(&mut lat, 0.5),
        p_ms(&mut lat, 0.99),
        p_ms(&mut lat, pct / 100.0),
    );
    eprintln!(
        "checked {} offered: failed {} (failed_ratio {:.6}; lost {}, duplicated {}, reordered {}, corrupted {}, stray {}), tolerated losses {}, duplicates suppressed {}",
        verdict.attempted, verdict.failed, verdict.failed_ratio(), verdict.lost,
        verdict.duplicated, verdict.reordered, verdict.corrupted, verdict.stray,
        verdict.tolerated_losses, verdict.dups_suppressed
    );
    let lag_valid = lag_q <= run::LAG_BOUND_NS;
    eprintln!(
        "generator lag p50 {} us, p90 {} us ({} against the {} us validity bound), p99 {} us",
        quantile(&mut lag, 0.5) / 1000,
        lag_q / 1000,
        if lag_valid { "valid" } else { "INVALID" },
        run::LAG_BOUND_NS / 1000,
        lag_p99 / 1000
    );
    let metrics = vec![
        metric("setup_s", median(setups), "s"),
        metric("latency_p50_ms", p50_ns / 1e6, "ms"),
        metric("deadline_met_ratio", verdict.deadline_met_ratio(), "ratio"),
        metric(
            "loss_ok_topic_ratio",
            verdict.loss_ok_topic_ratio(),
            "ratio",
        ),
        metric("intact_ratio", 1.0 - verdict.failed_ratio(), "ratio"),
        metric("sustained_msgs_s", sustained, "msgs/s"),
        metric("broker_rss_mib", rss / (1024.0 * 1024.0), "MiB"),
    ];
    let content_ok = verdict.content_ok() && cycles.iter().all(|c| c.verdict.content_ok());
    emit(
        content_ok && lag_valid,
        verdict.attempted,
        verdict.failed,
        &metrics,
    );
    Ok(())
}

/// The `--trace 1` run: counters, `/proc`, the traced socket run and the
/// replay, reconciled against the untraced latency.
fn per_layer(ctx: &Ctx, nominal: &[workload::TopicPlan], cycles: &[Cycle]) -> Result<(), String> {
    let secs = ctx.seconds;
    let plain = run::steady_window(ctx, nominal, secs, false, true)?;
    let mut fetch_failures = 0.0;
    let fallback;
    let counted: &Window = if plain.stats.is_some() {
        &plain
    } else {
        fetch_failures += 1.0;
        eprintln!(
            "Stats fetch failed at {} topics ({}); counters from a {STATS_TOPIC_LIMIT}-topic window",
            nominal.len(),
            plain.stats_error.as_deref().unwrap_or("no snapshot")
        );
        let topics = &nominal[..STATS_TOPIC_LIMIT.min(nominal.len())];
        fallback = run::steady_window(ctx, topics, secs, false, true)?;
        &fallback
    };
    let traced = run::steady_window(ctx, nominal, secs, true, false)?;
    let replayed = replay::replay(
        ctx.seed,
        nominal,
        4000.min(plain.offered as usize),
        &ctx.dir.join("spans-replay.jsonl"),
    )?;
    write_socket_spans(ctx, &traced)?;

    let [p0, b0, p1, b1] = counted.stats.as_ref().ok_or("no Stats snapshots")?;
    let d = stats::Counters::of(p1).since(&stats::Counters::of(p0));
    let backup = stats::Counters::of(b1).since(&stats::Counters::of(b0));
    let msgs = counted.offered.max(1) as f64;
    let replicas = d.replicate.max(1) as f64;
    let mut plain_lat = plain.verdict.latencies_ns();
    let mut traced_lat = traced.verdict.latencies_ns();
    let plain_p50_us = quantile(&mut plain_lat, 0.5) as f64 / 1e3;
    let traced_p50_us = quantile(&mut traced_lat, 0.5) as f64 / 1e3;
    let mut lag = plain.lag_ns.clone();
    let mut publish: Vec<u64> = traced.publish_spans.iter().map(|(s, e)| e - s).collect();
    let codec = |len: usize| {
        replayed
            .codec
            .iter()
            .find(|c| c.0 == len)
            .copied()
            .unwrap_or_default()
    };
    let (_, enc16, dec16) = codec(16);
    let (_, enc16k, dec16k) = codec(16 * 1024);
    let med_cycles = |f: &dyn Fn(&Cycle) -> f64| median(cycles.iter().map(f).collect());

    eprintln!(
        "waterfall (traced replay, self time per message, median of {} messages):",
        replayed.messages
    );
    for (name, us) in &replayed.layer_us {
        eprintln!("  {name:<22} {us:>10.3} us");
    }
    eprintln!(
        "  {:<22} {:>10.3} us",
        "blocking sum", replayed.blocking_sum_us
    );
    eprintln!("  {:<22} {:>10.3} us", "untraced latency p50", plain_p50_us);
    eprintln!(
        "  {:<22} {:>10.3} us  (queueing, wakeups, scheduling and loopback the layers do not cover)",
        "unattributed",
        plain_p50_us - replayed.blocking_sum_us
    );
    eprintln!(
        "  traced socket run latency p50 {traced_p50_us:.3} us: tracing overhead {:.2} %",
        (traced_p50_us - plain_p50_us) / plain_p50_us * 100.0
    );
    eprintln!("codec split (Publish frame, WireCodec::encode / FrameDecoder::feed):");
    eprintln!("  16 B payload    encode {enc16:>9.3} us  decode {dec16:>9.3} us");
    eprintln!("  16 KiB payload  encode {enc16k:>9.3} us  decode {dec16k:>9.3} us");

    let metrics = vec![
        metric(
            "loadgen.lag_p99_us",
            quantile(&mut lag, 0.99) as f64 / 1e3,
            "us",
        ),
        metric(
            "loadgen.cpu_us_per_msg",
            plain.loadgen_cpu_s * 1e6 / plain.offered.max(1) as f64,
            "us",
        ),
        metric(
            "wire.encode_publish_us",
            replayed.layer("wire.encode_publish"),
            "us",
        ),
        metric(
            "wire.encode_deliver_us",
            replayed.layer("wire.encode_deliver"),
            "us",
        ),
        metric("wire.frame_bytes", replayed.frame_bytes, "bytes"),
        metric(
            "wire.allocs_per_encode",
            replayed.allocs_per_encode,
            "count",
        ),
        metric(
            "tcp.decode_feed_us",
            replayed.layer("tcp.decode_feed"),
            "us",
        ),
        metric("tcp.read_frame_us", replayed.layer("tcp.read_frame"), "us"),
        metric("tcp.writev_us", replayed.layer("tcp.writev"), "us"),
        metric(
            "tcp.publish_call_us",
            quantile(&mut publish, 0.5) as f64 / 1e3,
            "us",
        ),
        metric(
            "tcp.bridge_write_syscalls_per_replica",
            d.bridge_writes as f64 / replicas,
            "count",
        ),
        metric("reactor.wakeups_per_msg", d.wakeups as f64 / msgs, "count"),
        metric(
            "reactor.read_syscalls_per_msg",
            d.reactor_reads as f64 / msgs,
            "count",
        ),
        metric(
            "reactor.write_syscalls_per_msg",
            d.reactor_writes as f64 / msgs,
            "count",
        ),
        metric(
            "reactor.busy_ratio",
            d.busy_ns as f64 / (d.busy_ns + d.parked_ns).max(1) as f64,
            "ratio",
        ),
        metric(
            "reactor.write_queue_drops",
            d.write_queue_drops as f64,
            "count",
        ),
        metric(
            "reactor.budget_exhaustions",
            d.budget_exhaustions as f64,
            "count",
        ),
        metric(
            "broker.on_message_us",
            replayed.layer("broker.on_message"),
            "us",
        ),
        metric(
            "broker.take_job_us",
            replayed.layer("broker.take_job"),
            "us",
        ),
        metric(
            "broker.finish_job_us",
            replayed.layer("broker.finish_job"),
            "us",
        ),
        metric(
            "broker.replications_per_msg",
            d.replicate as f64 / msgs,
            "count",
        ),
        metric(
            "broker.replication_wasted_ratio",
            (d.cancel + d.abort) as f64 / (d.replicate + d.cancel + d.abort).max(1) as f64,
            "ratio",
        ),
        metric("broker.stale_skips", d.stale_skip as f64, "count"),
        metric(
            "job.queue_wait_p50_us",
            stats::stage_us(p1, Stage::QueueWait, 0.5),
            "us",
        ),
        metric(
            "job.queue_wait_p99_us",
            stats::stage_us(p1, Stage::QueueWait, 0.99),
            "us",
        ),
        metric(
            "job.queue_high_watermark",
            stats::queue_high_watermark(p1) as f64,
            "count",
        ),
        metric(
            "broker_rt.dispatch_exec_p50_us",
            stats::stage_us(p1, Stage::DispatchExec, 0.5),
            "us",
        ),
        metric(
            "broker_rt.shard_contention_per_kmsg",
            d.shard_contention as f64 * 1e3 / msgs,
            "count",
        ),
        metric(
            "broker_rt.worker_cpu_us_per_msg",
            d.worker_cpu_ns as f64 / 1e3 / msgs,
            "us",
        ),
        metric(
            "broker_rt.hot_path_allocs_per_msg",
            d.hot_path_allocs as f64 / msgs,
            "count",
        ),
        metric(
            "backup.cpu_us_per_msg",
            counted.backup_cpu_s * 1e6 / msgs,
            "us",
        ),
        metric(
            "backup.wakeups_per_msg",
            backup.wakeups as f64 / msgs,
            "count",
        ),
        metric("pair.cpu_us_per_msg", plain.cpu_us_per_msg(), "us"),
        metric(
            "backup.replicate_exec_p50_us",
            stats::stage_us(p1, Stage::ReplicateExec, 0.5),
            "us",
        ),
        metric(
            "backup.prunes_per_replica",
            d.prune as f64 / replicas,
            "count",
        ),
        metric("backup.on_replica_us", replayed.on_replica_us, "us"),
        metric("broker.promote_us", replayed.promote_us, "us"),
        metric(
            "failover.gap_ms",
            med_cycles(&|c| c.gap_ms.unwrap_or(0.0)),
            "ms",
        ),
        metric("failover.detect_ms", med_cycles(&|c| c.detect_ms), "ms"),
        metric(
            "failover.promote_rtt_ms",
            med_cycles(&|c| c.promote_rtt_ms),
            "ms",
        ),
        metric(
            "failover.recovery_dispatches",
            med_cycles(&|c| c.recovered as f64),
            "count",
        ),
        metric(
            "failover.resend_dups_suppressed",
            med_cycles(&|c| c.verdict.dups_suppressed as f64),
            "count",
        ),
        metric(
            "failover.tolerated_losses",
            med_cycles(&|c| c.verdict.tolerated_losses as f64),
            "count",
        ),
        metric("waterfall.blocking_sum_us", replayed.blocking_sum_us, "us"),
        metric(
            "waterfall.unattributed_us",
            plain_p50_us - replayed.blocking_sum_us,
            "us",
        ),
        metric(
            "trace.overhead_pct",
            (traced_p50_us - plain_p50_us) / plain_p50_us * 100.0,
            "%",
        ),
        metric("codec.encode_16b_us", enc16, "us"),
        metric("codec.decode_16b_us", dec16, "us"),
        metric("codec.encode_16k_us", enc16k, "us"),
        metric("codec.decode_16k_us", dec16k, "us"),
        metric("stats.fetch_failures", fetch_failures, "count"),
    ];
    let v = &plain.verdict;
    let content_ok = [&plain, counted, &traced]
        .iter()
        .all(|w| w.verdict.content_ok())
        && cycles.iter().all(|c| c.verdict.content_ok());
    emit(content_ok, v.attempted, v.failed, &metrics);
    Ok(())
}

/// Writes the traced socket run's spans (one per `publish` and per
/// `read_frame` call) as JSON lines.
fn write_socket_spans(ctx: &Ctx, w: &Window) -> Result<(), String> {
    use std::io::Write;
    let path = ctx.dir.join("spans-socket.jsonl");
    let mut out = std::io::BufWriter::new(std::fs::File::create(&path).map_err(|e| e.to_string())?);
    let all = w
        .publish_spans
        .iter()
        .map(|s| ("tcp.publish_call", s))
        .chain(w.read_spans.iter().map(|s| ("tcp.read_frame", s)));
    for (name, (start, end)) in all {
        writeln!(
            out,
            "{{\"name\":\"{name}\",\"start_ns\":{start},\"end_ns\":{end},\"parent\":0}}"
        )
        .map_err(|e| e.to_string())?;
    }
    out.flush().map_err(|e| e.to_string())
}

/// Prints the result line.
fn emit(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted.max(1),
        body.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::calm;

    #[test]
    fn calm_keeps_everything_on_a_quiet_host() {
        let steal = [0.001, 0.0, 0.015, 0.004];
        assert_eq!(calm(&steal, |s| *s).len(), 4);
    }

    #[test]
    fn calm_drops_stolen_seconds_but_keeps_half() {
        let steal = [0.0, 0.2, 0.01, 0.3, 0.25, 0.005];
        let kept: Vec<f64> = calm(&steal, |s| *s).into_iter().copied().collect();
        assert_eq!(kept, vec![0.0, 0.005, 0.01]);
        let noisy = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(calm(&noisy, |s| *s).len(), 2);
    }
}
