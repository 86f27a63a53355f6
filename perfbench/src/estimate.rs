//! Per-run estimators.
//!
//! The recording host's speed swings 1.5–2× in phases lasting seconds to a
//! minute (see `RATIONALE.md`). Every workload therefore repeats one fixed
//! list of ops in batches, and each figure comes from the fastest repeat of
//! identical work: a slow phase inside a run cannot move an op's fastest
//! repeat unless it covers every repeat of that op.

/// Fastest-of-batches per op: op `i` of every batch is the same work, so
/// its cost is the fastest time any batch observed for it.
#[derive(Debug, Clone)]
pub struct FastestRepeat {
    best: Vec<f64>,
    batches: u32,
}

impl FastestRepeat {
    /// An estimator over `ops` ops per batch.
    pub fn new(ops: usize) -> Self {
        FastestRepeat {
            best: vec![f64::INFINITY; ops],
            batches: 0,
        }
    }

    /// Record one observation of op `op`.
    pub fn record(&mut self, op: usize, value: f64) {
        let b = &mut self.best[op];
        if value < *b {
            *b = value;
        }
    }

    /// Mark a batch as complete.
    pub fn finish_batch(&mut self) {
        self.batches += 1;
    }

    /// Batches completed.
    pub fn batches(&self) -> u32 {
        self.batches
    }

    /// Per-op fastest values (infinite for ops never observed).
    pub fn best(&self) -> &[f64] {
        &self.best
    }

    /// Sum of per-op fastest values over `range`: one batch's cost at every
    /// op's fastest repeat.
    pub fn total(&self, range: std::ops::Range<usize>) -> f64 {
        self.best[range].iter().sum()
    }

    /// Per-op fastest values over `range`, sorted ascending.
    pub fn sorted(&self, range: std::ops::Range<usize>) -> Vec<f64> {
        let mut v = self.best[range].to_vec();
        v.sort_by(f64::total_cmp);
        v
    }
}

/// A percentile expressed in parts per 100,000, so that sample counts stay
/// in integer arithmetic (`0.999 * 10_000` is not exactly 9990 in `f64`).
const PCT_DEN: u64 = 100_000;

/// Percentile ladder the tail rule climbs, in parts per 100,000.
const LADDER: [u64; 6] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999];

/// The reported tail of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile, e.g. `99.0`.
    pub percentile: f64,
    /// Its value (nearest rank).
    pub value: f64,
    /// Sample count.
    pub samples: usize,
    /// Samples ranked beyond the percentile.
    pub beyond: usize,
}

/// 1-based nearest rank of the percentile `num / PCT_DEN` in `n` samples.
fn rank(n: usize, num: u64) -> usize {
    let n = n as u64;
    (n * num).div_ceil(PCT_DEN).max(1) as usize
}

/// Nearest-rank percentile of an ascending sample, `p` in percent.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let num = (p * (PCT_DEN / 100) as f64).round() as u64;
    sorted[rank(sorted.len(), num) - 1]
}

/// The tail rule: the highest ladder percentile (50, 90, 99, 99.9, ...)
/// with at least ten samples ranked beyond it. Samples too few for even the
/// median to qualify report the median with whatever lies beyond it.
pub fn tail(sorted: &[f64]) -> Tail {
    assert!(!sorted.is_empty(), "tail of an empty sample");
    let n = sorted.len();
    let num = LADDER
        .iter()
        .rev()
        .copied()
        .find(|&num| n - rank(n, num) >= 10)
        .unwrap_or(LADDER[0]);
    let k = rank(n, num);
    Tail {
        percentile: num as f64 / (PCT_DEN / 100) as f64,
        value: sorted[k - 1],
        samples: n,
        beyond: n - k,
    }
}

/// Median of an unsorted sample (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Set-up windows per run (odd, so the median is one window's figure).
pub const SETUP_WINDOWS: usize = 9;

/// The set-up estimator: split the run's set-up repetitions, in the order
/// they ran, into `windows` consecutive slices; take each slice's fastest
/// repetition and report the median over slices. Each slice spans a stretch
/// of the run, so a slow phase moves the figure only if it covers most of
/// the run's slices completely.
pub fn windowed_min_median(samples: &[f64], windows: usize) -> f64 {
    assert!(!samples.is_empty(), "no set-up samples");
    let windows = windows.clamp(1, samples.len());
    let minima: Vec<f64> = (0..windows)
        .map(|w| {
            let lo = w * samples.len() / windows;
            let hi = (w + 1) * samples.len() / windows;
            samples[lo..hi]
                .iter()
                .copied()
                .fold(f64::INFINITY, f64::min)
        })
        .collect();
    median(&minima)
}

/// Peak resident set size in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's peak resident set size, MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kib = parse_vm_hwm_kib(&status).expect("VmHWM line in /proc/self/status");
    kib as f64 / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        // 1,323 samples (one paper pass): p99 leaves 13 beyond, p99.9 one.
        let t = tail(&ramp(1323));
        assert_eq!((t.percentile, t.samples, t.beyond), (99.0, 1323, 13));
        assert_eq!(t.value, 1310.0);
        // Exactly ten beyond qualifies; nine does not.
        assert_eq!(tail(&ramp(1000)).percentile, 99.0);
        assert_eq!(tail(&ramp(1000)).beyond, 10);
        let t = tail(&ramp(999));
        assert_eq!((t.percentile, t.beyond), (90.0, 99));
        // Integer ranks: 99.9% of 10,000 is rank 9,990, ten beyond.
        let t = tail(&ramp(10_000));
        assert_eq!((t.percentile, t.beyond, t.value), (99.9, 10, 9990.0));
        let t = tail(&ramp(120));
        assert_eq!((t.percentile, t.beyond), (90.0, 12));
    }

    #[test]
    fn tail_of_tiny_samples_falls_back_to_median() {
        let t = tail(&ramp(19));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 10.0, 9));
        let t = tail(&ramp(1));
        assert_eq!((t.percentile, t.value, t.beyond), (50.0, 1.0, 0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ramp(10);
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
    }

    #[test]
    fn fastest_repeat_keeps_each_ops_fastest_batch() {
        let mut f = FastestRepeat::new(3);
        for (batch, slow) in [(0, 3.0), (1, 1.0), (2, 2.0)] {
            for op in 0..3 {
                // Op 1 is twice op 0's work; batch 1 ran in a fast phase
                // except for op 2, which was fastest in batch 2.
                let mut v = (op as f64 + 1.0) * slow;
                if batch == 1 && op == 2 {
                    v = 10.0;
                }
                f.record(op, v);
            }
            f.finish_batch();
        }
        assert_eq!(f.batches(), 3);
        assert_eq!(f.best(), &[1.0, 2.0, 6.0]);
        assert_eq!(f.total(0..3), 9.0);
        assert_eq!(f.total(1..3), 8.0);
        assert_eq!(f.sorted(0..3), vec![1.0, 2.0, 6.0]);
    }

    #[test]
    fn fastest_repeat_ignores_a_slow_phase_covering_some_batches() {
        let mut f = FastestRepeat::new(100);
        for batch in 0..10 {
            let phase = if (3..9).contains(&batch) { 1.8 } else { 1.0 };
            for op in 0..100 {
                f.record(op, phase * (1.0 + op as f64 / 100.0));
            }
            f.finish_batch();
        }
        let fast: f64 = (0..100).map(|op| 1.0 + op as f64 / 100.0).sum();
        assert_eq!(f.total(0..100), fast);
    }

    #[test]
    fn windowed_min_median_takes_median_of_window_minima() {
        // Nine windows of two: minima 1..=9 in shuffled order, median 5.
        let s = [
            9.0, 19.0, 1.0, 11.0, 8.0, 18.0, 2.0, 12.0, 7.0, 17.0, 3.0, 13.0, 6.0, 16.0, 4.0, 14.0,
            5.0, 15.0,
        ];
        assert_eq!(windowed_min_median(&s, 9), 5.0);
        // A slow phase covering four of nine windows leaves the median on a
        // fast window.
        let mut s = vec![1.0; 18];
        for v in &mut s[..8] {
            *v = 2.0;
        }
        assert_eq!(windowed_min_median(&s, 9), 1.0);
        // Fewer samples than windows: every sample is its own window.
        assert_eq!(windowed_min_median(&[3.0, 1.0, 2.0], 9), 2.0);
        // Uneven split keeps every sample in exactly one window.
        assert_eq!(windowed_min_median(&[5.0, 4.0, 3.0, 2.0, 1.0], 2), 2.5);
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn vm_hwm_parses_proc_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    6144 kB\nVmRSS:\t 5000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(6144));
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 kB"), Some(12));
        assert_eq!(parse_vm_hwm_kib("VmRSS:\t12 kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 MB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\n"), None);
        assert!(peak_rss_mib() > 0.0);
    }
}
