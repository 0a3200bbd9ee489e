//! Unit + property tests for the telemetry subsystem: span nesting integrity,
//! counter monotonicity, and JSON sink round-trips through the crate's own
//! serde-free hand parser.

use msopds_telemetry as telemetry;
use proptest::prelude::*;
use telemetry::{CounterRow, GaugeRow, MetricsReport, SpanRow};

/// Recording state and the metric registries are process-global; every test
/// that toggles or reads them serializes on this lock.
#[cfg(not(feature = "force-off"))]
static GLOBAL: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(not(feature = "force-off"))]
fn lock() -> std::sync::MutexGuard<'static, ()> {
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

// ---------------------------------------------------------------------------
// Span nesting integrity
// ---------------------------------------------------------------------------

/// Enters `names[0] / names[1] / …` recursively, asserting the tracked depth
/// matches the call structure at every level, and returns the deepest depth
/// observed.
#[cfg(not(feature = "force-off"))]
fn nest(names: &[&'static str], base_depth: usize) -> usize {
    let Some((head, rest)) = names.split_first() else {
        return base_depth;
    };
    let _guard = telemetry::span(head);
    assert_eq!(telemetry::current_span_depth(), base_depth + 1, "depth tracks entry");
    let deepest = nest(rest, base_depth + 1);
    assert_eq!(telemetry::current_span_depth(), base_depth + 1, "children fully unwound");
    deepest
}

#[cfg(not(feature = "force-off"))]
#[test]
fn span_tree_depth_matches_call_structure() {
    let _l = lock();
    telemetry::set_enabled(true);
    telemetry::reset();
    let deepest = nest(&["a", "b", "c", "d"], 0);
    assert_eq!(deepest, 4);
    assert_eq!(telemetry::current_span_depth(), 0, "every start has a matching end");
    let r = telemetry::report();
    for path in ["a", "a/b", "a/b/c", "a/b/c/d"] {
        assert_eq!(r.span(path).map(|s| s.count), Some(1), "missing or miscounted {path}");
    }
    telemetry::set_enabled(false);
    telemetry::reset();
}

#[cfg(not(feature = "force-off"))]
#[test]
fn sibling_spans_aggregate_per_path() {
    let _l = lock();
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _outer = telemetry::span("loop");
        for _ in 0..5 {
            let _inner = telemetry::span("body");
        }
    }
    let r = telemetry::report();
    assert_eq!(r.span("loop").unwrap().count, 1);
    assert_eq!(r.span("loop/body").unwrap().count, 5, "loop entries fold into one row");
    assert!(r.span("body").is_none(), "child path is always parent-qualified");
    telemetry::set_enabled(false);
    telemetry::reset();
}

#[cfg(not(feature = "force-off"))]
#[test]
fn span_timing_is_monotonic_and_contained() {
    let _l = lock();
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _outer = telemetry::span("outer");
        let _inner = telemetry::span("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
    let r = telemetry::report();
    let outer = r.span("outer").unwrap().total_ns;
    let inner = r.span("outer/inner").unwrap().total_ns;
    assert!(inner >= 2_000_000, "sleep must register: {inner}ns");
    assert!(outer >= inner, "parent wall-clock contains the child: {outer} < {inner}");
    telemetry::set_enabled(false);
    telemetry::reset();
}

#[cfg(not(feature = "force-off"))]
#[test]
fn span_rows_report_ordered_duration_percentiles() {
    let _l = lock();
    telemetry::set_enabled(true);
    telemetry::reset();
    for i in 0..20u64 {
        let _s = telemetry::span("varied");
        std::thread::sleep(std::time::Duration::from_micros(50 * (i % 4)));
    }
    let r = telemetry::report();
    let row = r.span("varied").unwrap();
    assert_eq!(row.count, 20);
    assert!(row.p50_ns <= row.p99_ns && row.p99_ns <= row.max_ns, "{row:?}");
    assert!(row.max_ns >= 150_000, "the longest entry slept 150 µs: {row:?}");
    assert!(row.max_ns <= row.total_ns, "{row:?}");
    let tree = r.render_tree();
    assert!(tree.contains("p50=") && tree.contains("p99=") && tree.contains("max="), "{tree}");
    let parsed = MetricsReport::from_json(&r.to_json()).unwrap();
    assert_eq!(parsed.span("varied"), Some(row));
    telemetry::set_enabled(false);
    telemetry::reset();
}

#[cfg(not(feature = "force-off"))]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Arbitrary nesting depths always unwind to zero, with one aggregate row
    /// per distinct prefix path.
    #[test]
    fn random_nesting_depth_unwinds(depth in 0usize..8) {
        const NAMES: [&str; 8] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7"];
        let _l = lock();
        telemetry::set_enabled(true);
        telemetry::reset();
        let deepest = nest(&NAMES[..depth], 0);
        prop_assert_eq!(deepest, depth);
        prop_assert_eq!(telemetry::current_span_depth(), 0);
        prop_assert_eq!(telemetry::report().spans.len(), depth);
        telemetry::set_enabled(false);
        telemetry::reset();
    }

    /// Counters only move up, by exactly the amount added.
    #[test]
    fn counter_is_monotone(adds in proptest::collection::vec(0u64..1000, 0..40)) {
        static C: telemetry::Counter = telemetry::Counter::new("test.monotone");
        let _l = lock();
        telemetry::set_enabled(true);
        telemetry::reset();
        let mut expected = 0u64;
        let mut last = C.get();
        for add in adds {
            C.add(add);
            expected += add;
            let now = C.get();
            prop_assert!(now >= last, "counter moved backwards: {last} -> {now}");
            prop_assert_eq!(now, expected);
            last = now;
        }
        telemetry::set_enabled(false);
        telemetry::reset();
    }
}

// ---------------------------------------------------------------------------
// JSON sink round-trips (hand parser; no recording required, so these also
// run under --features force-off)
// ---------------------------------------------------------------------------

fn row_strategy() -> impl Strategy<Value = MetricsReport> {
    let path = proptest::collection::vec(0usize..5, 1..4)
        .prop_map(|segs| segs.iter().map(|s| format!("seg{s}")).collect::<Vec<_>>().join("/"));
    let spans = proptest::collection::vec(
        (path, 0u64..10_000, 0u64..1_000_000_000, (0u64..1000, 0u64..1000, 0u64..1_000_000))
            .prop_map(|(path, count, total_ns, (p50_ns, p99_ns, max_ns))| SpanRow {
                path,
                count,
                total_ns,
                p50_ns,
                p99_ns,
                max_ns,
            }),
        0..6,
    );
    let counters = proptest::collection::vec(
        (0usize..6, 0u64..u64::MAX / 2)
            .prop_map(|(n, value)| CounterRow { name: format!("counter.{n}"), value }),
        0..6,
    );
    let gauges = proptest::collection::vec(
        (0usize..6, (0i64..2_000_000).prop_map(|m| m as f64 / 1024.0 - 500.0))
            .prop_map(|(n, value)| GaugeRow { name: format!("gauge.{n}"), value }),
        0..6,
    );
    (spans, counters, gauges).prop_map(|(spans, counters, gauges)| MetricsReport {
        spans,
        counters,
        gauges,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// to_json → from_json is the identity, including exact f64 gauge bits.
    #[test]
    fn json_round_trips(report in row_strategy()) {
        let json = report.to_json();
        let parsed = MetricsReport::from_json(&json).expect("parse own output");
        prop_assert_eq!(&parsed, &report);
        // And a second trip through the writer is textually stable.
        prop_assert_eq!(parsed.to_json(), json);
    }
}

#[test]
fn json_escapes_special_characters() {
    let report = MetricsReport {
        spans: vec![SpanRow {
            path: "we\"ird\\name\nwith\ttabs".into(),
            count: 1,
            total_ns: 2,
            p50_ns: 2,
            p99_ns: 2,
            max_ns: 2,
        }],
        counters: vec![CounterRow { name: "unicode.τ∆".into(), value: 7 }],
        gauges: vec![GaugeRow { name: "g".into(), value: 0.1 + 0.2 }],
    };
    let parsed = MetricsReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
}

#[test]
fn json_rejects_malformed_input() {
    assert!(MetricsReport::from_json("").is_err());
    assert!(MetricsReport::from_json("{\"spans\": [").is_err());
    assert!(MetricsReport::from_json("{\"bogus\": [{}]}").is_err());
    assert!(MetricsReport::from_json("{} trailing").is_err());
}

#[test]
fn empty_report_round_trips() {
    let report = MetricsReport::default();
    let parsed = MetricsReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed, report);
    assert!(report.render_tree().contains("no spans recorded"));
}

#[cfg(not(feature = "force-off"))]
#[test]
fn recorded_report_round_trips_and_renders() {
    static HITS: telemetry::Counter = telemetry::Counter::new("test.rt.hits");
    static LOAD: telemetry::Gauge = telemetry::Gauge::new("test.rt.load");
    let _l = lock();
    telemetry::set_enabled(true);
    telemetry::reset();
    {
        let _a = telemetry::span("phase");
        let _b = telemetry::span("step");
        HITS.add(3);
        LOAD.set(0.625);
    }
    let report = telemetry::report();
    let parsed = MetricsReport::from_json(&report.to_json()).unwrap();
    assert_eq!(parsed.counter("test.rt.hits").unwrap().value, 3);
    assert_eq!(parsed.gauge("test.rt.load").unwrap().value, 0.625);
    assert_eq!(parsed.span("phase/step").unwrap().count, 1);
    let tree = report.render_tree();
    assert!(tree.contains("phase"), "tree lists spans:\n{tree}");
    assert!(tree.contains("test.rt.hits = 3"), "tree lists counters:\n{tree}");
    telemetry::set_enabled(false);
    telemetry::reset();
}
