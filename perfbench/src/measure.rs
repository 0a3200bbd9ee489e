//! Measurement helpers shared by the workloads: order statistics, resident
//! memory, seed derivation, the bitwise oracle, and the traced run's layer
//! timers and telemetry deltas.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

use msopds_telemetry::MetricsReport;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Whole-µs latency counts in fixed memory, so the benchmark's own
/// bookkeeping does not grow with the number of completions (the serving
/// tier's own growth is what `peak_rss_mb` watches). Samples past the last
/// bin count in it.
pub struct UsHistogram {
    counts: Vec<u64>,
    n: u64,
}

/// An empty histogram covering 0..200 ms.
impl Default for UsHistogram {
    fn default() -> Self {
        Self { counts: vec![0; Self::BINS + 1], n: 0 }
    }
}

impl UsHistogram {
    const BINS: usize = 200_000;

    /// Counts one sample.
    pub fn record(&mut self, us: u64) {
        self.counts[(us as usize).min(Self::BINS)] += 1;
        self.n += 1;
    }

    /// Samples counted.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The bin holding the sample of 0-based rank `rank`, and the number
    /// of samples below that bin.
    fn bin_of(&self, rank: u64) -> (usize, u64) {
        let mut below = 0;
        for (bin, &c) in self.counts.iter().enumerate() {
            if below + c > rank {
                return (bin, below);
            }
            below += c;
        }
        (Self::BINS, below)
    }

    /// The median interpolated inside its unit-wide bin (the grouped-data
    /// median), so it moves smoothly instead of in whole µs; 0 when empty.
    pub fn median(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let (bin, below) = self.bin_of(self.n / 2);
        bin as f64 - 0.5 + (self.n as f64 / 2.0 - below as f64) / self.counts[bin] as f64
    }

    /// Nearest-rank percentile (`p` in 0..=1); 0 when empty.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let rank = ((self.n - 1) as f64 * p.clamp(0.0, 1.0)).round() as u64;
        self.bin_of(rank).0 as f64
    }
}

/// Nearest-rank percentile (`p` in 0..=1) of `values`, the convention the
/// serving crates use; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[((v.len() as f64 - 1.0) * p.clamp(0.0, 1.0)).round() as usize]
}

/// A `/proc/self/status` field in megabytes (`VmHWM` = peak resident set,
/// `VmRSS` = current), or 0 where the file is unavailable.
pub fn proc_status_mb(field: &str) -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// splitmix64: derives independent sub-seeds and user ids from the
/// workload seed, so one seed fixes every input.
pub fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_133E_B11B);
    z ^ (z >> 31)
}

/// `n` game seeds derived from the workload seed. Kept below 2^32 so they
/// read well in the outcome lines.
pub fn game_seeds(workload_seed: u64, n: usize) -> Vec<u64> {
    (0..n as u64).map(|i| mix(workload_seed.wrapping_mul(1_000_003) ^ i) >> 32).collect()
}

static FLIP_NEXT: AtomicBool = AtomicBool::new(false);

/// Arms a one-shot corruption: the next [`same_bits`] comparison sees its
/// observed value with the lowest mantissa bit flipped. The self-test uses
/// it to prove that every workload's oracle trips on a one-bit error.
pub fn arm_flip() {
    FLIP_NEXT.store(true, Ordering::SeqCst);
}

/// The oracle's float comparison: exact bit equality.
pub fn same_bits(expected: f64, observed: f64) -> bool {
    let mut bits = observed.to_bits();
    if FLIP_NEXT.swap(false, Ordering::SeqCst) {
        bits ^= 1;
    }
    expected.to_bits() == bits
}

/// The pinned outcome of one game or cell: every float compared bitwise,
/// every count exactly.
#[derive(Clone, Debug, PartialEq)]
pub struct Outcome {
    /// r̄, HR@3, HR@10 and victim RMSE of each game, in play order.
    pub floats: Vec<f64>,
    /// Attacker and opponent action counts and ban counts, in play order.
    pub counts: Vec<u64>,
}

impl Outcome {
    /// True when `observed` reproduces `self` bit for bit.
    pub fn matches(&self, observed: &Outcome) -> bool {
        self.floats.len() == observed.floats.len()
            && self.floats.iter().zip(&observed.floats).all(|(&a, &b)| same_bits(a, b))
            && self.counts == observed.counts
    }

    /// The outcome as one line of hex float bits and counts.
    pub fn digest(&self) -> String {
        let floats: Vec<String> =
            self.floats.iter().map(|f| format!("{:016x}", f.to_bits())).collect();
        let counts: Vec<String> = self.counts.iter().map(u64::to_string).collect();
        format!("{} | {}", floats.join(" "), counts.join(" "))
    }
}

/// Wall time spent in each layer's public calls during one traced
/// operation, keyed by metric-style name.
#[derive(Default)]
pub struct LayerTimes {
    secs: BTreeMap<&'static str, f64>,
}

impl LayerTimes {
    /// Runs `f`, charging its wall time to `layer`.
    pub fn time<R>(&mut self, layer: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        *self.secs.entry(layer).or_default() += start.elapsed().as_secs_f64();
        out
    }

    /// Seconds charged to `layer`.
    pub fn get(&self, layer: &str) -> f64 {
        self.secs.get(layer).copied().unwrap_or(0.0)
    }

    /// Seconds charged to all layers.
    pub fn total(&self) -> f64 {
        self.secs.values().sum()
    }
}

/// A counter's value in `report`, 0 when never registered.
pub fn counter(report: &MetricsReport, name: &str) -> u64 {
    report.counter(name).map_or(0, |c| c.value)
}

/// A gauge's value in `report`, 0 when never set.
pub fn gauge(report: &MetricsReport, name: &str) -> f64 {
    report.gauge(name).map_or(0.0, |g| g.value)
}

/// Total seconds of every span whose path ends with `suffix`.
pub fn span_secs(report: &MetricsReport, suffix: &str) -> f64 {
    report.spans.iter().filter(|s| s.path.ends_with(suffix)).map(|s| s.total_ns).sum::<u64>() as f64
        / 1e9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 0.5), 51.0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = UsHistogram::default();
        for us in [1, 2, 2, 2] {
            h.record(us);
        }
        assert_eq!(h.median(), 2.0 - 0.5 + 1.0 / 3.0);
        let mut h = UsHistogram::default();
        for us in 1..=100 {
            h.record(us);
        }
        assert_eq!(h.percentile(0.99), 99.0);
        h.record(u64::MAX);
        assert_eq!(h.percentile(1.0), UsHistogram::BINS as f64);
        assert_eq!(h.count(), 101);
    }

    #[test]
    fn seeds_are_derived_deterministically() {
        assert_eq!(game_seeds(7, 3), game_seeds(7, 3));
        assert_ne!(game_seeds(7, 3), game_seeds(8, 3));
    }

    #[test]
    fn a_flipped_bit_trips_the_outcome_oracle() {
        let a = Outcome { floats: vec![3.25, 0.5], counts: vec![4, 2] };
        assert!(a.matches(&a.clone()));
        arm_flip();
        assert!(!a.matches(&a.clone()));
        assert!(a.matches(&a.clone()), "the flip is one-shot");
        let b = Outcome { counts: vec![4, 3], ..a.clone() };
        assert!(!a.matches(&b));
    }
}
