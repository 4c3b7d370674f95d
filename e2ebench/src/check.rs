//! The delivery checker and the paper's evaluators.
//!
//! Every delivery is judged against what the generator offered: exactly
//! once, in per-topic seq order, with the seeded payload and the
//! `created_at` the generator stamped. The same pass feeds the Table-4
//! evaluator (longest run of consecutive losses per topic vs `L_i`) and
//! the Table-5 evaluator (each offered message delivered within `D_i`; a
//! missing message is a miss).

use std::collections::HashMap;

use crate::workload::LossBound;

/// One message the generator offered.
#[derive(Clone, Copy, Debug)]
pub struct Offered {
    pub topic: u32,
    pub seq: u64,
    /// Intended send time, ns since the run's epoch; also what the
    /// message's `created_at` must echo.
    pub intended_ns: u64,
    /// Which measured phase offered it (kill cycle, window, ladder rung).
    pub phase: u32,
}

/// One delivery the subscriber read.
#[derive(Clone, Copy, Debug)]
pub struct Delivery {
    pub topic: u32,
    pub seq: u64,
    pub recv_ns: u64,
    /// `created_at` as delivered, ns since the run's epoch.
    pub created_ns: u64,
    /// Whether the payload matched the seeded pattern.
    pub payload_ok: bool,
    /// Read from the promoted Backup (duplicates there are the paper's
    /// expected resend/recovery overlap, discarded by sequence number).
    pub after_promotion: bool,
}

/// What the checker needs to know about a topic.
#[derive(Clone, Copy, Debug)]
pub struct Rule {
    pub deadline_ns: u64,
    pub loss: LossBound,
}

/// The crash interval of a kill cycle: a run of losses whose messages all
/// fall inside it, and which stays within `L_i`, is tolerated (Lemma 1
/// allows it) rather than failed.
#[derive(Clone, Copy, Debug)]
pub struct CrashWindow {
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The outcome of judging one set of phases.
#[derive(Clone, Debug, Default)]
pub struct Verdict {
    pub attempted: u64,
    /// Messages lost (beyond tolerance), duplicated, reordered or corrupted;
    /// each message counts once.
    pub failed: u64,
    pub lost: u64,
    pub duplicated: u64,
    pub reordered: u64,
    pub corrupted: u64,
    /// Deliveries matching no offered message.
    pub stray: u64,
    pub tolerated_losses: u64,
    pub dups_suppressed: u64,
    pub deadline_met: u64,
    pub topics: u64,
    pub topics_loss_ok: u64,
    /// `(intended send, latency to first intact delivery)` per delivered
    /// message, in offer order.
    pub samples: Vec<(u64, u64)>,
}

impl Verdict {
    /// Whether every delivered byte was what was offered.
    pub fn content_ok(&self) -> bool {
        self.corrupted == 0 && self.stray == 0
    }

    pub fn latencies_ns(&self) -> Vec<u64> {
        self.samples.iter().map(|&(_, l)| l).collect()
    }

    pub fn failed_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    pub fn deadline_met_ratio(&self) -> f64 {
        ratio(self.deadline_met, self.attempted)
    }

    pub fn loss_ok_topic_ratio(&self) -> f64 {
        ratio(self.topics_loss_ok, self.topics)
    }
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

#[derive(Clone, Copy, Default)]
struct Fate {
    first_recv_ns: Option<u64>,
    duplicated: bool,
    reordered: bool,
    corrupted: bool,
    dups_suppressed: u64,
}

/// Judges the offered messages of the phases `keep` selects against every
/// delivery of the run (order checks need the whole delivery stream).
pub fn evaluate(
    offered: &[Offered],
    deliveries: &[Delivery],
    rules: &HashMap<u32, Rule>,
    keep: impl Fn(u32) -> bool,
    crash: Option<CrashWindow>,
) -> Verdict {
    let index: HashMap<(u32, u64), usize> = offered
        .iter()
        .enumerate()
        .map(|(i, o)| ((o.topic, o.seq), i))
        .collect();
    let mut fates = vec![Fate::default(); offered.len()];
    let mut high_water: HashMap<u32, u64> = HashMap::new();
    let mut v = Verdict::default();
    for d in deliveries {
        let Some(&i) = index.get(&(d.topic, d.seq)) else {
            v.stray += 1;
            continue;
        };
        let fate = &mut fates[i];
        if !d.payload_ok || d.created_ns != offered[i].intended_ns {
            fate.corrupted = true;
            continue;
        }
        if fate.first_recv_ns.is_some() {
            if d.after_promotion {
                fate.dups_suppressed += 1;
            } else {
                fate.duplicated = true;
            }
            continue;
        }
        let hw = high_water.entry(d.topic).or_insert(d.seq);
        if d.seq < *hw {
            fate.reordered = true;
        }
        *hw = (*hw).max(d.seq);
        fate.first_recv_ns = Some(d.recv_ns);
    }

    // Per topic, the kept messages in seq order, for loss runs.
    let mut per_topic: HashMap<u32, Vec<usize>> = HashMap::new();
    for (i, o) in offered.iter().enumerate() {
        if keep(o.phase) {
            per_topic.entry(o.topic).or_default().push(i);
        }
    }
    let mut tolerated = vec![false; offered.len()];
    for (topic, mut idx) in per_topic {
        idx.sort_unstable_by_key(|&i| offered[i].seq);
        let rule = rules[&topic];
        let mut max_run = 0usize;
        let mut run: Vec<usize> = Vec::new();
        for &i in idx.iter().chain(std::iter::once(&usize::MAX)) {
            if i != usize::MAX && fates[i].first_recv_ns.is_none() {
                run.push(i);
                continue;
            }
            max_run = max_run.max(run.len());
            let within_bound = rule.loss.is_none_or(|l| run.len() <= l as usize);
            let in_crash = crash.is_some_and(|c| {
                run.iter()
                    .all(|&j| (c.start_ns..=c.end_ns).contains(&offered[j].intended_ns))
            });
            if within_bound && in_crash {
                for &j in &run {
                    tolerated[j] = true;
                }
            }
            run.clear();
        }
        v.topics += 1;
        if rule.loss.is_none_or(|l| max_run <= l as usize) {
            v.topics_loss_ok += 1;
        }
    }

    for (i, o) in offered.iter().enumerate() {
        if !keep(o.phase) {
            continue;
        }
        let fate = fates[i];
        v.attempted += 1;
        v.dups_suppressed += fate.dups_suppressed;
        let lost = fate.first_recv_ns.is_none();
        if let Some(recv) = fate.first_recv_ns {
            let latency = recv.saturating_sub(o.intended_ns);
            v.samples.push((o.intended_ns, latency));
            if latency <= rules[&o.topic].deadline_ns {
                v.deadline_met += 1;
            }
        }
        if lost && tolerated[i] {
            v.tolerated_losses += 1;
        } else if lost {
            v.lost += 1;
        }
        v.duplicated += u64::from(fate.duplicated);
        v.reordered += u64::from(fate.reordered);
        v.corrupted += u64::from(fate.corrupted);
        let failed = (lost && !tolerated[i]) || fate.duplicated || fate.reordered || fate.corrupted;
        v.failed += u64::from(failed);
    }
    v
}

/// The `q`-quantile (0..=1) of `values` by nearest rank; 0 when empty.
pub fn quantile(values: &mut [u64], q: f64) -> u64 {
    if values.is_empty() {
        return 0;
    }
    values.sort_unstable();
    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
    values[rank - 1]
}

/// The highest percentile of `n` samples that still has at least ten
/// samples beyond it (choosing-metrics §1), e.g. 99.9 for 10 000 samples.
pub fn supported_percentile(n: usize) -> f64 {
    if n <= 10 {
        return 0.0;
    }
    let mut p = 50.0;
    for candidate in [90.0, 99.0, 99.9, 99.99, 99.999] {
        // Rounded: 10 000 × (1 − 0.999) is 9.999… in floating point.
        if ((n as f64) * (100.0 - candidate) / 100.0 * 1e6).round() >= 10.0 * 1e6 {
            p = candidate;
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    const L: u32 = 2;

    fn rules() -> HashMap<u32, Rule> {
        HashMap::from([(
            1,
            Rule {
                deadline_ns: 50,
                loss: Some(L),
            },
        )])
    }

    /// Topic 1, seqs `0..n`, one every 10 ns.
    fn offered(n: u64) -> Vec<Offered> {
        (0..n)
            .map(|seq| Offered {
                topic: 1,
                seq,
                intended_ns: seq * 10,
                phase: 0,
            })
            .collect()
    }

    fn delivery(seq: u64, latency: u64) -> Delivery {
        Delivery {
            topic: 1,
            seq,
            recv_ns: seq * 10 + latency,
            created_ns: seq * 10,
            payload_ok: true,
            after_promotion: false,
        }
    }

    fn judge(n: u64, log: &[Delivery], crash: Option<CrashWindow>) -> Verdict {
        evaluate(&offered(n), log, &rules(), |_| true, crash)
    }

    #[test]
    fn clean_log_passes_everything() {
        let log: Vec<_> = (0..5).map(|s| delivery(s, 5)).collect();
        let v = judge(5, &log, None);
        assert_eq!((v.attempted, v.failed, v.deadline_met), (5, 0, 5));
        assert_eq!((v.topics, v.topics_loss_ok), (1, 1));
        assert!(v.content_ok());
    }

    #[test]
    fn reorder_fails_the_late_message_only() {
        let log = [
            delivery(0, 5),
            delivery(2, 5),
            delivery(1, 30),
            delivery(3, 5),
        ];
        let v = judge(4, &log, None);
        assert_eq!((v.reordered, v.failed, v.lost), (1, 1, 0));
    }

    #[test]
    fn duplicate_fails_unless_after_promotion() {
        let log = [delivery(0, 5), delivery(1, 5), delivery(1, 7)];
        let v = judge(2, &log, None);
        assert_eq!((v.duplicated, v.failed, v.dups_suppressed), (1, 1, 0));

        let mut promoted = delivery(1, 9);
        promoted.after_promotion = true;
        let log = [delivery(0, 5), delivery(1, 5), promoted];
        let v = judge(2, &log, None);
        assert_eq!((v.duplicated, v.failed, v.dups_suppressed), (0, 0, 1));
    }

    #[test]
    fn corrupted_payload_or_created_at_is_a_failure_and_not_delivered() {
        let mut bad = delivery(1, 5);
        bad.payload_ok = false;
        let mut skewed = delivery(2, 5);
        skewed.created_ns += 1;
        let v = judge(3, &[delivery(0, 5), bad, skewed], None);
        assert_eq!((v.corrupted, v.failed), (2, 2));
        assert!(!v.content_ok());
        assert_eq!(v.samples.len(), 1, "corrupt copies are not deliveries");
    }

    #[test]
    fn stray_delivery_is_not_content_ok() {
        let mut ghost = delivery(0, 5);
        ghost.seq = 99;
        let v = judge(1, &[delivery(0, 5), ghost], None);
        assert_eq!(v.stray, 1);
        assert!(!v.content_ok());
    }

    #[test]
    fn loss_run_of_exactly_l_passes_table4_and_l_plus_one_fails() {
        // Seqs 1..=L lost: a run of exactly L.
        let log: Vec<_> = std::iter::once(0)
            .chain(L as u64 + 1..8)
            .map(|s| delivery(s, 5))
            .collect();
        let v = judge(8, &log, None);
        assert_eq!((v.topics_loss_ok, v.lost), (1, L as u64));
        assert_eq!(v.failed, L as u64, "outside a crash every loss counts");

        // Seqs 1..=L+1 lost: one too many.
        let log: Vec<_> = std::iter::once(0)
            .chain(L as u64 + 2..8)
            .map(|s| delivery(s, 5))
            .collect();
        let v = judge(8, &log, None);
        assert_eq!((v.topics_loss_ok, v.lost), (0, L as u64 + 1));
    }

    #[test]
    fn losses_within_l_inside_the_crash_window_are_tolerated() {
        let crash = Some(CrashWindow {
            start_ns: 10,
            end_ns: 30,
        });
        let log: Vec<_> = std::iter::once(0)
            .chain(L as u64 + 1..8)
            .map(|s| delivery(s, 5))
            .collect();
        let v = judge(8, &log, crash);
        assert_eq!((v.tolerated_losses, v.lost, v.failed), (L as u64, 0, 0));

        // L+1 losses exceed the budget even inside the crash window.
        let log: Vec<_> = std::iter::once(0)
            .chain(L as u64 + 2..8)
            .map(|s| delivery(s, 5))
            .collect();
        let v = judge(8, &log, crash);
        assert_eq!((v.tolerated_losses, v.failed), (0, L as u64 + 1));
    }

    #[test]
    fn deadline_evaluator_counts_missing_as_missed() {
        let log = [delivery(0, 5), delivery(1, 51)];
        let v = judge(3, &log, None);
        assert_eq!((v.attempted, v.deadline_met), (3, 1));
        assert!((v.deadline_met_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn phases_outside_the_filter_are_not_judged() {
        let mut off = offered(4);
        off[2].phase = 1;
        off[3].phase = 1;
        let log = [delivery(0, 5), delivery(1, 5)];
        let v = evaluate(&off, &log, &rules(), |p| p == 0, None);
        assert_eq!((v.attempted, v.failed), (2, 0));
    }

    #[test]
    fn quantiles_and_supported_percentile() {
        let mut v: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut v, 0.5), 50);
        assert_eq!(quantile(&mut v, 0.99), 99);
        assert_eq!(supported_percentile(1000), 99.0);
        assert_eq!(supported_percentile(10_000), 99.9);
        assert_eq!(supported_percentile(50), 50.0);
    }
}
