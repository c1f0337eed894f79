//! Sample statistics and outcome accounting shared by every workload.

/// Percentiles the reported tail is chosen from, lowest first.
const TAIL_LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; fewer would make it the reading of one or two outliers.
const TAIL_MIN_BEYOND: usize = 10;

/// 1-based nearest rank of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps binary rounding (99.9 * 10000 / 100 reads
    // 9990.000000000002) from pushing an exact rank up by one.
    (p * n as f64 / 100.0 - 1e-9).ceil().max(1.0) as usize
}

/// Nearest-rank percentile of an ascending slice (0 for an empty one).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), p).min(sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_LADDER`] that has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it in a sample of `n`; the median
/// when the sample supports no higher one.
pub fn tail_percentile(n: usize) -> f64 {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n.saturating_sub(rank(n, p)) >= TAIL_MIN_BEYOND)
        .unwrap_or(50.0)
}

/// Median and tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// Which percentile [`Summary::tail`] is (see [`tail_percentile`]).
    pub tail_p: f64,
    /// The tail reading.
    pub tail: f64,
}

/// Summarise a sample in any unit.
pub fn summarize(samples: &[f64]) -> Summary {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let tail_p = tail_percentile(sorted.len());
    Summary {
        n: sorted.len(),
        p50: percentile(&sorted, 50.0),
        tail_p,
        tail: percentile(&sorted, tail_p),
    }
}

/// Latency and throughput of a request stream read per window of send
/// time and reported as medians over the windows, so that one stalled
/// window (a noisy neighbour on a shared host) cannot move them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Windowed {
    /// Full windows read (1 when the stream is shorter than a window).
    pub windows: usize,
    /// Median over windows of requests sent per second.
    pub ops_per_s: f64,
    /// Median over windows of the per-window p50 and tail; `n` is the
    /// smallest window's sample count, which fixes the tail percentile
    /// for every window.
    pub latency: Summary,
}

/// Read `(sent_ns, latency)` samples of a stream that sent for `span_ns`
/// in windows of `window_ns` (only full windows count).
pub fn windowed(samples: &[(u64, f64)], span_ns: u64, window_ns: u64) -> Windowed {
    let (count, len_ns) = if span_ns >= window_ns {
        ((span_ns / window_ns) as usize, window_ns)
    } else {
        (1, span_ns.max(1))
    };
    let mut per: Vec<Vec<f64>> = vec![Vec::new(); count];
    for &(sent, latency) in samples {
        if let Some(w) = per.get_mut((sent / len_ns) as usize) {
            w.push(latency);
        }
    }
    for w in &mut per {
        w.sort_by(f64::total_cmp);
    }
    let n = per.iter().map(Vec::len).min().unwrap_or(0);
    let tail_p = tail_percentile(n);
    let pick = |f: &dyn Fn(&[f64]) -> f64| median(&per.iter().map(|w| f(w)).collect::<Vec<_>>());
    Windowed {
        windows: count,
        ops_per_s: pick(&|w| w.len() as f64 / (len_ns as f64 / 1e9)),
        latency: Summary {
            n,
            p50: pick(&|w| percentile(w, 50.0)),
            tail_p,
            tail: pick(&|w| percentile(w, tail_p)),
        },
    }
}

/// Median of a sample (mean of the middle pair for even counts).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Geometric mean (0 for an empty sample).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Latency of an open-loop request measured from the time it was due:
/// the generator's lateness (`submitted - due`, never negative) plus the
/// engine's queue wait and service time. A generator stall therefore
/// counts against every request it delayed, not only the one it hit.
pub fn due_latency_ns(due_ns: u64, submitted_ns: u64, queue_ns: u64, service_ns: u64) -> u64 {
    submitted_ns.saturating_sub(due_ns) + queue_ns + service_ns
}

/// Attempted operations and how each ended. Drops (refused at admission)
/// and errors both count as failures and as misses of any latency limit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed with an error.
    pub errors: u64,
    /// Operations refused before they ran.
    pub drops: u64,
    /// Completed operations within the latency limit.
    pub good: u64,
}

impl Tally {
    /// A completed operation; `within_limit` is false when it finished
    /// after the workload's latency limit.
    pub fn ok(&mut self, within_limit: bool) {
        self.attempted += 1;
        self.good += u64::from(within_limit);
    }

    /// An operation that ran and failed.
    pub fn error(&mut self) {
        self.attempted += 1;
        self.errors += 1;
    }

    /// An operation refused at admission.
    pub fn drop_one(&mut self) {
        self.attempted += 1;
        self.drops += 1;
    }

    /// Add another tally's counts to this one.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.drops += other.drops;
        self.good += other.good;
    }

    /// Failed or dropped operations.
    pub fn failed(&self) -> u64 {
        self.errors + self.drops
    }

    /// Failed or dropped operations over attempted (0 when none).
    pub fn fail_frac(&self) -> f64 {
        ratio(self.failed(), self.attempted)
    }

    /// Completed-within-limit operations over attempted (0 when none).
    pub fn goodput_frac(&self) -> f64 {
        ratio(self.good, self.attempted)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        // 10 or fewer samples: nothing has ten beyond it but the median
        // is still reported.
        assert_eq!(tail_percentile(0), 50.0);
        assert_eq!(tail_percentile(10), 50.0);
        // 20 samples: p50 is rank 10 with 10 beyond; p75 has only 5.
        assert_eq!(tail_percentile(20), 50.0);
        // 40 samples: p75 is rank 30 with 10 beyond.
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1000), 99.0);
        assert_eq!(tail_percentile(10_000), 99.9);
    }

    #[test]
    fn summary_reads_nearest_rank() {
        let samples: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        let s = summarize(&samples);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 500.0);
        assert_eq!(s.tail_p, 99.0);
        assert_eq!(s.tail, 990.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_medians() {
        // Five 1 s windows of 100 requests at 10 ms each; the third
        // window stalls to 500 ms per request.
        let samples: Vec<(u64, f64)> = (0..500u64)
            .map(|i| {
                let sent = i * 10_000_000;
                let stalled = (200..300).contains(&i);
                (sent, if stalled { 500.0 } else { 10.0 })
            })
            .collect();
        let w = windowed(&samples, 5_000_000_000, 1_000_000_000);
        assert_eq!(w.windows, 5);
        assert_eq!(w.ops_per_s, 100.0);
        assert_eq!(w.latency.n, 100);
        assert_eq!(w.latency.tail_p, 90.0);
        assert_eq!((w.latency.p50, w.latency.tail), (10.0, 10.0));
        // Over the whole stream the same stall owns the tail.
        assert_eq!(
            summarize(&samples.iter().map(|s| s.1).collect::<Vec<_>>()).tail,
            500.0
        );
        // Shorter than one window: everything is one window.
        let short = windowed(&samples[..50], 500_000_000, 1_000_000_000);
        assert_eq!((short.windows, short.ops_per_s), (1, 100.0));
    }

    #[test]
    fn due_time_latency_charges_a_late_generator() {
        // Due at 1 ms, submitted at 5 ms (a 4 ms stall), then 2 ms queued
        // and 3 ms served: 9 ms from due, not the 5 ms the engine saw.
        assert_eq!(
            due_latency_ns(1_000_000, 5_000_000, 2_000_000, 3_000_000),
            9_000_000
        );
        // On time or early: no lateness is charged.
        assert_eq!(due_latency_ns(5_000, 5_000, 10, 20), 30);
        assert_eq!(due_latency_ns(5_000, 4_000, 10, 20), 30);
    }

    #[test]
    fn drops_and_errors_fail_and_miss_the_limit() {
        let mut t = Tally::default();
        t.ok(true);
        t.ok(true);
        t.ok(false); // completed, but late
        t.error();
        t.drop_one();
        assert_eq!(t.attempted, 5);
        assert_eq!(t.failed(), 2);
        assert!((t.fail_frac() - 0.4).abs() < 1e-12);
        assert!((t.goodput_frac() - 0.4).abs() < 1e-12);
        assert_eq!(Tally::default().fail_frac(), 0.0);
        let mut sum = Tally::default();
        sum.merge(&t);
        sum.merge(&t);
        assert_eq!((sum.attempted, sum.failed(), sum.good), (10, 4, 4));
    }
}
