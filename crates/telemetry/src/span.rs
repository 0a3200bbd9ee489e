//! Hierarchical RAII spans timed on the monotonic clock.
//!
//! Each thread keeps a stack of active span names; entering a span pushes its
//! name, and dropping the guard pops it and folds the elapsed time into a
//! process-global aggregate keyed by the `/`-joined path. A loop that enters
//! the same span many times therefore produces one row with `count == n`
//! rather than `n` rows. Each aggregate is a [`Histogram`] of the entry
//! durations, so a row reports p50/p99/max besides the count and total.

use std::collections::BTreeMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::histogram::Histogram;
use crate::report::SpanRow;

thread_local! {
    static STACK: std::cell::RefCell<Vec<&'static str>> = const { std::cell::RefCell::new(Vec::new()) };
}

/// Histograms are boxed so the map's nodes stay small.
type Aggregates = BTreeMap<String, Box<Histogram>>;

fn aggregates() -> &'static Mutex<Aggregates> {
    static AGG: OnceLock<Mutex<Aggregates>> = OnceLock::new();
    AGG.get_or_init(|| Mutex::new(BTreeMap::new()))
}

/// Enters a span named `name`, timed until the returned guard drops.
///
/// When recording is off the guard is inert and the call costs one atomic
/// load. Span names are `&'static str` so the hot enter path allocates
/// nothing; the path string is only built once, at drop, on the recording
/// path.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !crate::enabled() {
        return SpanGuard { live: None };
    }
    let depth = STACK.with(|s| {
        let mut s = s.borrow_mut();
        s.push(name);
        s.len()
    });
    SpanGuard { live: Some(LiveSpan { depth, start: Instant::now() }) }
}

/// Depth of the current thread's active span stack (0 outside any span, or
/// whenever recording is off).
pub fn current_span_depth() -> usize {
    STACK.with(|s| s.borrow().len())
}

struct LiveSpan {
    depth: usize,
    start: Instant,
}

/// RAII guard returned by [`span`]; records the elapsed time on drop.
pub struct SpanGuard {
    live: Option<LiveSpan>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(live) = self.live.take() else { return };
        let elapsed = live.start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        let path = STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Guards drop in reverse entry order under normal control flow;
            // truncating (rather than popping once) keeps the stack coherent
            // even if an inner guard leaked past its scope.
            let path = s[..live.depth.min(s.len())].join("/");
            s.truncate(live.depth.saturating_sub(1));
            path
        });
        if path.is_empty() {
            return;
        }
        let mut agg = aggregates().lock().unwrap_or_else(|e| e.into_inner());
        agg.entry(path).or_default().record(elapsed);
    }
}

/// Snapshot of every span aggregate, sorted by path (BTreeMap order), which
/// places children right after their parents in the tree rendering.
pub(crate) fn rows() -> Vec<SpanRow> {
    aggregates()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .map(|(path, hist)| {
            let h = hist.snapshot();
            SpanRow {
                path: path.clone(),
                count: h.count,
                total_ns: u64::try_from(h.sum).unwrap_or(u64::MAX),
                p50_ns: h.quantile(0.50),
                p99_ns: h.quantile(0.99),
                max_ns: h.max,
            }
        })
        .collect()
}

/// Clears all span aggregates.
pub(crate) fn reset_all() {
    aggregates().lock().unwrap_or_else(|e| e.into_inner()).clear();
}
