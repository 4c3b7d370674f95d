//! The measured phases, each on its own Primary+Backup pair: kill cycles,
//! the steady window at the nominal load, and the sustained-rate ladder.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use frame_telemetry::TelemetrySnapshot;

use crate::check::{evaluate, quantile, CrashWindow, Rule, Verdict};
use crate::loadgen::{receive, subscribe, Epoch, ReadSpan, RxConfig, Session};
use crate::proc::{host_ticks, self_cpu_s, steal_share, BrokerProc};
use crate::stats;
use crate::workload::{manifest_json, mix, schedule, topics, Kind, TopicPlan};

/// A valid phase's generator sends at most this late at p90 (10 % of the
/// tightest deadline); a phase over it measured the generator, not the
/// brokers. The bound sits on p90 rather than p99 because one-off stalls
/// of a shared host's vCPUs reach several ms at p99 even at a few
/// messages per second; those stalls stay charged to latency, which runs
/// from the intended send time.
pub const LAG_BOUND_NS: u64 = 5_000_000;

/// The lag quantile [`LAG_BOUND_NS`] applies to.
pub const LAG_QUANTILE: f64 = 0.9;

/// The fixed inputs of one benchmark invocation.
pub struct Ctx {
    pub cli: PathBuf,
    pub dir: PathBuf,
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub epoch: Epoch,
}

impl Ctx {
    pub fn topics(&self, n: usize) -> Vec<TopicPlan> {
        topics(self.kind, self.seed, n)
    }

    fn manifest(&self, topics: &[TopicPlan]) -> Result<PathBuf, String> {
        let path = self.dir.join(format!("manifest-{}.json", topics.len()));
        if !path.exists() {
            std::fs::write(&path, manifest_json(topics)).map_err(|e| e.to_string())?;
        }
        Ok(path)
    }
}

/// The two broker processes of a pair.
pub struct Pair {
    pub primary: BrokerProc,
    pub backup: BrokerProc,
}

impl Pair {
    fn cpu_s(&self) -> f64 {
        self.primary.cpu_s().unwrap_or(0.0) + self.backup.cpu_s().unwrap_or(0.0)
    }

    fn peak_rss(&self) -> u64 {
        self.primary.peak_rss_bytes().unwrap_or(0) + self.backup.peak_rss_bytes().unwrap_or(0)
    }
}

/// Spawns a pair whose manifest holds `topics`, connects the generator,
/// and makes one warm-up round trip; the time from the first spawn to
/// that round trip is the set-up time. Runs `body`, then kills and reaps
/// both brokers (also on error or panic) before the receiver is joined.
fn with_pair<T>(
    ctx: &Ctx,
    topics: &[TopicPlan],
    traced: bool,
    body: impl FnOnce(&mut Session, &mut Pair, &AtomicBool) -> Result<T, String>,
) -> Result<(f64, T, Vec<ReadSpan>), String> {
    let manifest = ctx.manifest(topics)?;
    let started = Instant::now();
    let backup = BrokerProc::spawn(&ctx.cli, &manifest, None, ctx.dir.join("backup.log"))?;
    let primary = BrokerProc::spawn(
        &ctx.cli,
        &manifest,
        Some(backup.addr),
        ctx.dir.join("primary.log"),
    )?;
    let mut pair = Pair { primary, backup };
    let reader = subscribe(pair.primary.addr).map_err(|e| e.to_string())?;
    let armed = AtomicBool::new(false);
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::scope(|scope| {
        let rx_cfg = RxConfig {
            epoch: ctx.epoch,
            seed: ctx.seed,
            payload_len: ctx.kind.payload_len(),
            armed: &armed,
            backup: pair.backup.addr,
            traced,
        };
        let receiver = scope.spawn(move || receive(reader, &rx_cfg, &tx));
        let out = (|| {
            let mut session =
                Session::new(ctx.epoch, ctx.seed, topics, pair.primary.addr, rx, traced)?;
            session.warm_up().map_err(|e| {
                format!(
                    "{e}; primary: {}; backup: {}",
                    pair.primary.log_tail(),
                    pair.backup.log_tail()
                )
            })?;
            let setup_s = started.elapsed().as_secs_f64();
            let out = body(&mut session, &mut pair, &armed)?;
            Ok((setup_s, out))
        })();
        // Dropping the pair kills both brokers; the receiver then sees its
        // socket close and returns.
        armed.store(false, Ordering::SeqCst);
        drop(pair);
        let spans = receiver.join().expect("receiver thread panicked");
        out.map(|(setup_s, out)| (setup_s, out, spans))
    })
}

fn rules(topics: &[TopicPlan]) -> HashMap<u32, Rule> {
    topics
        .iter()
        .map(|t| {
            (
                t.id,
                Rule {
                    deadline_ns: t.deadline_ns,
                    loss: t.loss,
                },
            )
        })
        .collect()
}

fn max_deadline(topics: &[TopicPlan]) -> u64 {
    topics.iter().map(|t| t.deadline_ns).max().unwrap_or(0)
}

/// Offered msgs/s of a topic set.
pub fn rate(topics: &[TopicPlan]) -> f64 {
    topics.iter().map(|t| 1e9 / t.period_ns as f64).sum()
}

fn secs_ns(s: f64) -> u64 {
    (s * 1e9) as u64
}

/// One kill cycle: the workload runs, the Primary is `SIGKILL`ed at a
/// seeded instant, the generator fails over to the Backup and continues.
pub struct Cycle {
    pub setup_s: f64,
    pub verdict: Verdict,
    /// `SIGKILL` → first delivery read from the promoted Backup.
    pub gap_ms: Option<f64>,
    pub detect_ms: f64,
    /// `Promoted` received → the publisher's retention re-sends written.
    pub resume_ms: f64,
    pub promote_rtt_ms: f64,
    pub recovered: u64,
    pub offered: u64,
    pub cpu_s: f64,
    pub rss_bytes: u64,
    pub lag_ns: Vec<u64>,
    /// Share of host CPU time stolen by the hypervisor while it ran.
    pub steal: f64,
}

/// How long before the kill a message may have been offered and still be
/// lost to it (queued at the Primary, not yet dispatched).
const CRASH_LEAD_NS: u64 = 100_000_000;

/// What to do with the promoted Backup after the cycle is judged.
pub type AfterCycle<'a> = Box<dyn FnOnce(&mut Session) -> Result<(), String> + 'a>;

pub fn kill_cycle(
    ctx: &Ctx,
    index: u64,
    topics: &[TopicPlan],
    manifest_topics: &[TopicPlan],
    after: Option<AfterCycle<'_>>,
) -> Result<Cycle, String> {
    let secs = ctx.seconds / 16.0;
    let slots = schedule(topics, secs_ns(secs));
    let frac = (mix(ctx.seed ^ mix(index + 1)) % 1000) as f64 / 1000.0;
    let kill_at = secs_ns(secs * (0.35 + 0.3 * frac));
    let rules = rules(manifest_topics);
    let (setup_s, cycle, _) = with_pair(ctx, manifest_topics, false, |session, pair, armed| {
        // CPU from here on: the pair's start-up is set-up, not traffic.
        let cpu_before = pair.cpu_s();
        let mut primary_cpu = 0.0;
        let mut primary_rss = 0;
        let primary = &mut pair.primary;
        let mut fire = || {
            primary_cpu = primary.cpu_s().unwrap_or(0.0);
            primary_rss = primary.peak_rss_bytes().unwrap_or(0);
            armed.store(true, Ordering::SeqCst);
            primary.kill();
        };
        let ticks = host_ticks();
        let run = session.run_phase(0, topics, &slots, Some((kill_at, &mut fire)));
        let kill_ns = run.kill_ns.ok_or("the kill never fired")?;
        let crash_from = kill_ns.saturating_sub(CRASH_LEAD_NS);
        session.settle(&run, max_deadline(topics), Some(crash_from));
        let steal = steal_share(ticks, host_ticks());
        let p = session
            .promotion
            .ok_or("the Backup was never promoted after the kill")?;
        let crash = CrashWindow {
            start_ns: crash_from,
            end_ns: session.resumed_ns.unwrap_or(run.end_ns) + 1_000_000,
        };
        let verdict = evaluate(
            &session.offered,
            &session.deliveries,
            &rules,
            |_| true,
            Some(crash),
        );
        let gap_ms = session
            .deliveries
            .iter()
            .find(|d| d.after_promotion)
            .map(|d| d.recv_ns.saturating_sub(kill_ns) as f64 / 1e6);
        let cycle = Cycle {
            setup_s: 0.0,
            verdict,
            gap_ms,
            detect_ms: p.eof_ns.saturating_sub(kill_ns) as f64 / 1e6,
            resume_ms: session
                .resumed_ns
                .map_or(0.0, |r| r.saturating_sub(p.promoted_ns) as f64 / 1e6),
            promote_rtt_ms: (p.promoted_ns - p.promote_sent_ns) as f64 / 1e6,
            recovered: p.recovered,
            offered: session.offered.len() as u64,
            cpu_s: primary_cpu + pair.backup.cpu_s().unwrap_or(0.0) - cpu_before,
            rss_bytes: primary_rss + pair.backup.peak_rss_bytes().unwrap_or(0),
            lag_ns: session.lag_ns.clone(),
            steal,
        };
        if let Some(after) = after {
            after(session)?;
        }
        Ok(cycle)
    })?;
    Ok(Cycle { setup_s, ..cycle })
}

/// The steady window at the nominal load.
pub struct Window {
    pub setup_s: f64,
    pub verdict: Verdict,
    pub offered: u64,
    pub slices: Vec<Slice>,
    pub backup_cpu_s: f64,
    pub loadgen_cpu_s: f64,
    pub rss_bytes: u64,
    pub lag_ns: Vec<u64>,
    pub publish_spans: Vec<(u64, u64)>,
    pub read_spans: Vec<ReadSpan>,
    /// Primary and Backup snapshots before and after, when fetched.
    pub stats: Option<[TelemetrySnapshot; 4]>,
    pub stats_error: Option<String>,
}

/// Unmeasured seconds at the start of a steady window.
const WARM_UP_SECS: u32 = 2;

pub fn steady_window(
    ctx: &Ctx,
    topics: &[TopicPlan],
    secs: f64,
    traced: bool,
    with_stats: bool,
) -> Result<Window, String> {
    // Every period divides a second, so back-to-back one-second phases
    // offer the same stream as one long phase, sliced for medians.
    let slot_1s = schedule(topics, 1_000_000_000);
    let count = (secs.round() as u32).max(1);
    let rules = rules(topics);
    let (setup_s, mut w, read_spans) = with_pair(ctx, topics, traced, |session, pair, _| {
        // A fresh pair's first seconds run slower (pools, allocator and
        // page tables warming up): offered, but not measured.
        for _ in 0..WARM_UP_SECS {
            session.run_phase(0, topics, &slot_1s, None);
        }
        session.publish_spans.clear();
        let first = session.offered.len();
        let mut stats_error = None;
        let before = if with_stats {
            match (
                stats::fetch(pair.primary.addr),
                stats::fetch(pair.backup.addr),
            ) {
                (Ok(p0), Ok(b0)) => Some((p0, b0)),
                (Err(e), _) | (_, Err(e)) => {
                    stats_error = Some(e);
                    None
                }
            }
        } else {
            None
        };
        let cpu0 = (
            pair.cpu_s(),
            pair.backup.cpu_s().unwrap_or(0.0),
            self_cpu_s(),
        );
        let mut slices = Vec::new();
        let mut cpu_before = cpu0.0;
        let mut last = None;
        let mut ticks = host_ticks();
        for i in 0..count {
            let run = session.run_phase(1 + i, topics, &slot_1s, None);
            let cpu = pair.cpu_s();
            let now = host_ticks();
            slices.push(Slice {
                offered: run.offered.len() as u64,
                cpu_s: cpu - cpu_before,
                p50_ns: 0,
                steal: steal_share(ticks, now),
            });
            cpu_before = cpu;
            ticks = now;
            last = Some(run);
        }
        let last = last.expect("at least one slice");
        session.settle(&last, max_deadline(topics), None);
        let cpu1 = (
            pair.cpu_s(),
            pair.backup.cpu_s().unwrap_or(0.0),
            self_cpu_s(),
        );
        let stats = before.and_then(|(p0, b0)| {
            match (
                stats::fetch(pair.primary.addr),
                stats::fetch(pair.backup.addr),
            ) {
                (Ok(p1), Ok(b1)) => Some([p0, b0, p1, b1]),
                (Err(e), _) | (_, Err(e)) => {
                    stats_error = Some(e);
                    None
                }
            }
        });
        for (i, slice) in (1..).zip(slices.iter_mut()) {
            let v = evaluate(
                &session.offered,
                &session.deliveries,
                &rules,
                |p| p == i,
                None,
            );
            slice.p50_ns = quantile(&mut v.latencies_ns(), 0.5);
        }
        Ok(Window {
            setup_s: 0.0,
            verdict: evaluate(
                &session.offered,
                &session.deliveries,
                &rules,
                |p| p >= 1,
                None,
            ),
            offered: (session.offered.len() - first) as u64,
            slices,
            backup_cpu_s: cpu1.1 - cpu0.1,
            loadgen_cpu_s: cpu1.2 - cpu0.2,
            rss_bytes: pair.peak_rss(),
            lag_ns: session.lag_ns[first..].to_vec(),
            publish_spans: std::mem::take(&mut session.publish_spans),
            read_spans: Vec::new(),
            stats,
            stats_error,
        })
    })?;
    w.setup_s = setup_s;
    w.read_spans = read_spans;
    Ok(w)
}

impl Window {
    /// CPU µs both brokers spent per offered message over the window.
    pub fn cpu_us_per_msg(&self) -> f64 {
        self.slices.iter().map(|s| s.cpu_s).sum::<f64>() * 1e6
            / self.slices.iter().map(|s| s.offered).sum::<u64>().max(1) as f64
    }
}

/// One second of a steady window.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    pub offered: u64,
    /// CPU both brokers used while it was offered.
    pub cpu_s: f64,
    /// Median latency of the messages it offered, ns.
    pub p50_ns: u64,
    /// Share of host CPU time stolen by the hypervisor during it.
    pub steal: f64,
}

/// One ladder rung's outcome.
#[derive(Clone, Debug)]
pub struct Rung {
    pub topics: usize,
    pub msgs_s: f64,
    pub pass: bool,
    pub why: String,
}

/// Judges a rung (or the steady window) against the sustained-rate
/// criteria: Table 4 on every topic, ≥ 99 % within `D_i`, nothing
/// failed, no growing backlog, and the generator within its lag bound.
pub fn sustainable(v: &Verdict, lag_ns: &[u64]) -> Result<(), String> {
    let mut lag = lag_ns.to_vec();
    let lag_q = quantile(&mut lag, LAG_QUANTILE);
    if lag_q > LAG_BOUND_NS {
        return Err(format!("generator lag p90 {} us over bound", lag_q / 1000));
    }
    if v.topics_loss_ok < v.topics {
        return Err(format!("{} topics over L_i", v.topics - v.topics_loss_ok));
    }
    if v.deadline_met_ratio() < 0.99 {
        return Err(format!("deadline met {:.4}", v.deadline_met_ratio()));
    }
    if v.failed > 0 {
        return Err(format!(
            "{} failed (lost {}, dup {}, reorder {}, corrupt {})",
            v.failed, v.lost, v.duplicated, v.reordered, v.corrupted
        ));
    }
    // Backlog: the median latency of each quarter of the phase rises
    // quarter over quarter, ending above twice the first plus 1 ms. A burst
    // of outside load raises one quarter; a backlog raises them in turn.
    let n = v.samples.len();
    if n >= 8 {
        let p50: Vec<u64> = v
            .samples
            .chunks(n.div_ceil(4))
            .map(|q| quantile(&mut q.iter().map(|s| s.1).collect::<Vec<_>>(), 0.5))
            .collect();
        let rising = p50.windows(2).all(|w| w[1] >= w[0]);
        let (first, last) = (p50[0], p50[p50.len() - 1]);
        if rising && last > 2 * first + 1_000_000 {
            return Err(format!(
                "backlog growing: p50 {} us -> {} us",
                first / 1000,
                last / 1000
            ));
        }
    }
    Ok(())
}

/// Topic-count factor of the ladder's coarse climb.
const CLIMB: f64 = 2.0;

/// Bisection steps after the coarse climb (≈4 % resolution).
const BISECT_STEPS: u32 = 4;

/// Starts at `base` topics and climbs in ×[`CLIMB`] steps until a rung
/// fails (or descends in ÷[`CLIMB`] steps until one passes), then bisects
/// between the highest pass and the lowest failure. `session` must have
/// every topic of `all` registered.
pub fn ladder(ctx: &Ctx, session: &mut Session, all: &[TopicPlan], base: usize) -> Vec<Rung> {
    let rung_secs = ctx.seconds / 8.0;
    let mut rungs: Vec<Rung> = Vec::new();
    let mut phase = 100;
    // A failing rung is tried once more, so one burst of outside load
    // does not end the climb: a rung fails only when both trials do.
    let mut run_rung = |session: &mut Session, n: usize| -> bool {
        let topics = &all[..n];
        for _ in 0..2 {
            phase += 1;
            let first = session.offered.len();
            let run = session.run_phase(phase, topics, &schedule(topics, secs_ns(rung_secs)), None);
            session.settle(&run, max_deadline(topics), None);
            let v = evaluate(
                &session.offered,
                &session.deliveries,
                &rules(topics),
                |p| p == phase,
                None,
            );
            let verdict = sustainable(&v, &session.lag_ns[first..]);
            rungs.push(Rung {
                topics: n,
                msgs_s: rate(topics),
                pass: verdict.is_ok(),
                why: verdict.err().unwrap_or_default(),
            });
            if rungs.last().expect("just pushed").pass {
                return true;
            }
        }
        false
    };
    let (mut lo, mut hi) = (None, None);
    let mut n = base;
    if run_rung(session, base) {
        lo = Some(base);
        while n < all.len() {
            n = ((n as f64 * CLIMB).ceil() as usize).min(all.len());
            if run_rung(session, n) {
                lo = Some(n);
            } else {
                hi = Some(n);
                break;
            }
        }
    } else {
        hi = Some(base);
        while n > 1 {
            n = (n as f64 / CLIMB).floor().max(1.0) as usize;
            if run_rung(session, n) {
                lo = Some(n);
                break;
            }
            hi = Some(n);
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        for _ in 0..BISECT_STEPS {
            let mid = ((l as f64) * (h as f64)).sqrt().round() as usize;
            if mid <= l || mid >= h {
                break;
            }
            if run_rung(session, mid) {
                l = mid;
            } else {
                h = mid;
            }
        }
    }
    rungs
}

/// The offered rate of the highest passing rung (0 when none passed).
pub fn sustained(rungs: &[Rung]) -> f64 {
    rungs
        .iter()
        .filter(|r| r.pass)
        .map(|r| r.msgs_s)
        .fold(0.0, f64::max)
}

/// Runs the ladder on a fresh pair registered with every topic of `all`.
pub fn ladder_on_fresh_pair(
    ctx: &Ctx,
    all: &[TopicPlan],
    base: usize,
) -> Result<Vec<Rung>, String> {
    let (_, rungs, _) = with_pair(ctx, all, false, |session, _, _| {
        Ok(ladder(ctx, session, all, base))
    })?;
    Ok(rungs)
}

/// A directory for the run's manifests and span dumps inside the build
/// directory.
pub fn run_dir(target: &Path, kind: Kind, seed: u64) -> Result<PathBuf, String> {
    let dir = target
        .join("e2ebench")
        .join(format!("{}-{}", kind.name(), seed));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(dir)
}
