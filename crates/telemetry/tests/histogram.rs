//! Property tests for the fixed-size latency histogram: quantiles against an
//! exact nearest-rank sort within the documented error bound, the edge
//! values of the `u64` range, merge as the union of sample sets, and exact
//! totals under concurrent recording. The histogram records whether or not
//! telemetry is enabled, so these also run under `--features force-off`.

use msopds_telemetry::{Histogram, SUB_BITS};
use proptest::prelude::*;

/// The nearest-rank quantile of `sorted`, by the convention the histogram
/// documents: the sample of 0-based rank `round((n - 1) * p)`.
fn exact_quantile(sorted: &[u64], p: f64) -> u64 {
    sorted[((sorted.len() - 1) as f64 * p).round() as usize]
}

fn histogram_of(samples: &[u64]) -> Histogram {
    let h = Histogram::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Samples spread over many magnitudes: mostly latency-like values, with
/// some drawn from the whole `u64` range.
fn samples() -> impl Strategy<Value = Vec<u64>> {
    let value = (0u32..14, 0u64..=u64::MAX).prop_map(|(kind, raw)| match kind {
        0..=3 => raw % 64,
        4..=11 => raw % 1_000_000,
        _ => raw,
    });
    proptest::collection::vec(value, 1..400)
}

const PS: [f64; 8] = [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 0.9999, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every quantile lies within 2^-(SUB_BITS + 1) of the exact
    /// nearest-rank sample, never above the maximum, and in order.
    #[test]
    fn quantiles_match_an_exact_sort_within_the_bound(samples in samples()) {
        let snap = histogram_of(&samples).snapshot();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let mut last = 0u64;
        for p in PS {
            let want = exact_quantile(&sorted, p);
            let got = snap.quantile(p);
            let err = u128::from(got.abs_diff(want));
            prop_assert!(
                err << (SUB_BITS + 1) <= u128::from(want),
                "p={p}: got {got}, exact {want}"
            );
            if want < 64 {
                prop_assert_eq!(got, want, "values below 64 are exact");
            }
            prop_assert!(got <= snap.max);
            prop_assert!(got >= last, "quantiles are monotone in p");
            last = got;
        }
        prop_assert_eq!(snap.count, samples.len() as u64);
        prop_assert_eq!(snap.sum, samples.iter().map(|&v| u128::from(v)).sum::<u128>());
        prop_assert_eq!(snap.max, *sorted.last().unwrap());
    }

    /// Merging two histograms gives exactly the histogram of both sample
    /// sets, and merging is order-independent.
    #[test]
    fn merge_equals_recording_every_sample_into_one(a in samples(), b in samples()) {
        let (ha, hb) = (histogram_of(&a), histogram_of(&b));
        let all: Vec<u64> = a.iter().chain(&b).copied().collect();
        let want = histogram_of(&all).snapshot();
        let ab = histogram_of(&a);
        ab.merge(&hb);
        prop_assert_eq!(ab.snapshot(), want.clone());
        hb.merge(&ha);
        prop_assert_eq!(hb.snapshot(), want);
    }
}

#[test]
fn edge_values_zero_one_and_max() {
    let h = Histogram::new();
    for v in [0, 1, u64::MAX] {
        h.record(v);
    }
    let s = h.snapshot();
    assert_eq!((s.count, s.max), (3, u64::MAX));
    assert_eq!(s.sum, u128::from(u64::MAX) + 1, "the sum carries past 64 bits");
    assert_eq!(s.quantile(0.0), 0);
    assert_eq!(s.quantile(0.5), 1);
    assert_eq!(s.quantile(1.0), u64::MAX);

    // Several maximal samples still sum exactly, and a merge carries too.
    h.record(u64::MAX);
    let twice = h.clone();
    twice.merge(&h);
    let s = twice.snapshot();
    assert_eq!(s.count, 8);
    assert_eq!(s.sum, 2 * (2 * u128::from(u64::MAX) + 1));
    assert_eq!(s.quantile(1.0), u64::MAX);
    let top_bucket = s.quantile(0.9);
    assert!(u64::MAX - top_bucket <= u64::MAX >> (SUB_BITS + 1), "{top_bucket}");
}

#[test]
fn empty_histogram_reads_zero() {
    let s = Histogram::new().snapshot();
    assert_eq!((s.count, s.sum, s.max), (0, 0, 0));
    assert_eq!(s.mean(), 0.0);
    assert_eq!(s.quantile(0.5), 0);
}

#[test]
fn four_threads_recording_concurrently_give_exact_totals() {
    const PER_THREAD: u64 = 50_000;
    let h = Histogram::new();
    // Thread t records t, t + 4, t + 8, … scaled so the values span many
    // buckets; together the threads record each multiple of 37 once.
    let value = |i: u64| i * 37;
    std::thread::scope(|s| {
        for t in 0..4u64 {
            let h = &h;
            s.spawn(move || {
                for k in 0..PER_THREAD {
                    h.record(value(k * 4 + t));
                }
            });
        }
    });
    let n = 4 * PER_THREAD;
    let s = h.snapshot();
    assert_eq!(s.count, n);
    assert_eq!(s.sum, (0..n).map(|i| u128::from(value(i))).sum::<u128>());
    assert_eq!(s.max, value(n - 1));
    let sequential = histogram_of(&(0..n).map(value).collect::<Vec<_>>());
    assert_eq!(s, sequential.snapshot(), "every bucket matches a sequential run");
}
