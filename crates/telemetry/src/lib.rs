//! # msopds-telemetry
//!
//! Lightweight observability for the MSOPDS attack/training stack:
//! hierarchical RAII [`span`]s timed on the monotonic clock, process-global
//! typed [`Counter`]s and [`Gauge`]s, a fixed-size mergeable latency
//! [`Histogram`], and a sink that renders either a human-readable tree
//! summary or machine-readable JSON ([`MetricsReport::to_json`]).
//!
//! ## Cost model
//!
//! Recording is **off by default**. Every recording call starts with a single
//! relaxed atomic load ([`enabled`]); when disabled, that branch is the entire
//! cost, so instrumented hot paths (tape pushes, buffer-pool lookups) stay at
//! kernel speed. The `force-off` cargo feature removes even that load by
//! compiling [`enabled`] to a constant `false`.
//!
//! Recording is switched on either programmatically ([`set_enabled`]) or via
//! the `MSOPDS_METRICS` environment variable, which the first [`enabled`]
//! check reads:
//!
//! * `MSOPDS_METRICS=1` (or any value other than `0`/`off`/`false`) — record,
//!   and [`export`] prints the tree summary to stderr;
//! * `MSOPDS_METRICS=path/to/metrics.json` (any value containing `/` or
//!   ending in `.json`) — record, and [`export`] writes JSON to that path.
//!
//! ## Usage
//!
//! ```
//! use msopds_telemetry as telemetry;
//!
//! static SOLVES: telemetry::Counter = telemetry::Counter::new("demo.solves");
//!
//! telemetry::set_enabled(true);
//! {
//!     let _outer = telemetry::span("plan");
//!     let _inner = telemetry::span("solve");
//!     SOLVES.incr();
//! }
//! let report = telemetry::report();
//! if !cfg!(feature = "force-off") {
//!     assert_eq!(report.span("plan/solve").unwrap().count, 1);
//! }
//! # telemetry::set_enabled(false);
//! # telemetry::reset();
//! ```
//!
//! Spans aggregate per *path* (the `/`-joined stack of active span names on
//! the current thread), so a loop that enters `mso/iter` twenty times shows
//! one row with `count = 20` rather than twenty rows. Each row records its
//! entry durations into a [`Histogram`], so it also reports p50/p99/max.
//! All state is process-global and thread-safe; per-thread span stacks keep
//! nesting integrity without cross-thread locking on the enter path.

#![warn(missing_docs)]

mod counter;
mod histogram;
mod json;
mod report;
mod span;

use std::path::{Path, PathBuf};
#[cfg(not(feature = "force-off"))]
use std::sync::atomic::{AtomicU8, Ordering};

pub use counter::{Counter, Gauge};
pub use histogram::{Histogram, HistogramSnapshot, SUB_BITS};
pub use report::{CounterRow, GaugeRow, MetricsReport, SpanRow};
pub use span::{current_span_depth, span, SpanGuard};

/// Tri-state recording flag: 0 = off, 1 = on, 2 = not yet initialized from
/// the environment.
#[cfg(not(feature = "force-off"))]
static STATE: AtomicU8 = AtomicU8::new(2);

/// True when telemetry recording is on.
///
/// The first call reads `MSOPDS_METRICS` (see the crate docs); later calls
/// are a single relaxed atomic load. With the `force-off` feature this is a
/// constant `false` and the compiler removes instrumented code entirely.
#[inline]
pub fn enabled() -> bool {
    #[cfg(feature = "force-off")]
    {
        false
    }
    #[cfg(not(feature = "force-off"))]
    {
        match STATE.load(Ordering::Relaxed) {
            0 => false,
            1 => true,
            _ => init_from_env(),
        }
    }
}

#[cfg(not(feature = "force-off"))]
#[cold]
fn init_from_env() -> bool {
    let on = env_value().is_some();
    STATE.store(on as u8, Ordering::Relaxed);
    on
}

/// Turns recording on or off, overriding the environment. A no-op under the
/// `force-off` feature.
pub fn set_enabled(on: bool) {
    let _ = on;
    #[cfg(not(feature = "force-off"))]
    STATE.store(on as u8, Ordering::Relaxed);
}

/// The `MSOPDS_METRICS` value when it requests recording, else `None`.
fn env_value() -> Option<String> {
    let v = std::env::var("MSOPDS_METRICS").ok()?;
    let t = v.trim();
    if t.is_empty() || t == "0" || t.eq_ignore_ascii_case("off") || t.eq_ignore_ascii_case("false")
    {
        return None;
    }
    Some(t.to_string())
}

/// The JSON output path requested by `MSOPDS_METRICS`, when its value looks
/// like a file path (contains `/` or ends in `.json`).
pub fn env_metrics_path() -> Option<PathBuf> {
    let v = env_value()?;
    if v.contains('/') || v.ends_with(".json") {
        Some(PathBuf::from(v))
    } else {
        None
    }
}

/// Zeroes every counter and gauge and clears all span aggregates.
///
/// Counters stay registered (they are `static`s), so a later [`report`] shows
/// them at zero rather than dropping them.
pub fn reset() {
    counter::reset_all();
    span::reset_all();
}

/// Snapshots the current metrics into a [`MetricsReport`].
pub fn report() -> MetricsReport {
    MetricsReport {
        spans: span::rows(),
        counters: counter::counter_rows(),
        gauges: counter::gauge_rows(),
    }
}

/// Exports the current metrics if recording is on: JSON to `out` (falling
/// back to the `MSOPDS_METRICS` path), or the human-readable tree to stderr
/// when no path is configured. Does nothing when recording is off.
pub fn export(out: Option<&Path>) {
    if !enabled() {
        return;
    }
    let report = report();
    let path = out.map(Path::to_path_buf).or_else(env_metrics_path);
    match path {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, report.to_json()) {
                eprintln!("telemetry: failed to write {}: {e}", path.display());
            } else {
                eprintln!("telemetry: metrics written to {}", path.display());
            }
        }
        None => eprintln!("{}", report.render_tree()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The recording flag and registries are process-global; tests in this
    // crate serialize on this lock before toggling them.
    pub(crate) static TEST_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn disabled_records_nothing() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        reset();
        static C: Counter = Counter::new("test.disabled");
        C.add(5);
        {
            let _s = span("test-disabled-span");
            assert_eq!(current_span_depth(), 0);
        }
        let r = report();
        assert!(r.span("test-disabled-span").is_none());
        assert!(r.counter("test.disabled").is_none());
    }

    #[cfg(not(feature = "force-off"))]
    #[test]
    fn enabled_round_trip() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        reset();
        static C: Counter = Counter::new("test.enabled");
        static G: Gauge = Gauge::new("test.gauge");
        C.add(2);
        C.incr();
        G.set(0.25);
        {
            let _outer = span("outer");
            let _inner = span("inner");
            assert_eq!(current_span_depth(), 2);
        }
        let r = report();
        assert_eq!(r.counter("test.enabled").unwrap().value, 3);
        assert_eq!(r.gauge("test.gauge").unwrap().value, 0.25);
        assert_eq!(r.span("outer").unwrap().count, 1);
        assert_eq!(r.span("outer/inner").unwrap().count, 1);
        set_enabled(false);
        reset();
    }

    #[cfg(feature = "force-off")]
    #[test]
    fn force_off_ignores_set_enabled() {
        let _guard = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(true);
        assert!(!enabled());
        static C: Counter = Counter::new("test.force-off");
        C.incr();
        let _s = span("forced-off");
        assert_eq!(current_span_depth(), 0);
        assert!(report().counter("test.force-off").is_none());
    }
}
