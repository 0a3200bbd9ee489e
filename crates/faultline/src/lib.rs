//! # msopds-faultline
//!
//! Seeded, deterministic fault injection for the MSOPDS stack. Recovery code
//! that is never exercised is broken code waiting to be discovered in a
//! 40-hour sweep; this crate lets tests and CI *drive* the panic/NaN/delay
//! paths that the runner, CG solver and surrogate trainer are supposed to
//! survive.
//!
//! ## Cost model
//!
//! Without the `fault-injection` cargo feature every entry point in this
//! crate is an empty `#[inline]` function, so instrumented call sites
//! ([`fault_point!`], [`corrupt_slice`]) compile to nothing. With the feature
//! enabled but no plan armed, each call is one relaxed atomic load.
//!
//! ## Fault plans
//!
//! A plan names *sites* (free-form dotted strings like `"cg.solve"`), a fault
//! *kind* and a firing *rate*:
//!
//! ```text
//! MSOPDS_FAULT_PLAN="seed=42;xp.cell=panic@0.1;cg.solve=nan@0.05;pds.unroll=delay:3@0.5"
//! ```
//!
//! * `panic` — the site panics (callers are expected to `catch_unwind`);
//! * `nan` — [`corrupt_slice`] / [`corrupt_f64`] poison the value with NaN;
//! * `delay:MS` — the site sleeps `MS` milliseconds (exercises timeouts and
//!   the journal's partial-write tolerance);
//! * `trip` — [`fault_trip`] returns true and the site degrades itself in a
//!   site-specific way (the socket layer's short reads/writes, refused
//!   accepts and forced mid-frame disconnects).
//!
//! Rates are probabilities in `[0, 1]`; `site=panic` alone means rate 1.
//! This crate reads no environment: the `repro` and `serve` binaries parse
//! `MSOPDS_FAULT_PLAN` with [`FaultPlan::parse`] (a malformed plan exits 2)
//! and arm it through [`set_plan`].
//!
//! ## Determinism
//!
//! Whether a given check fires depends only on the plan seed, the site name,
//! the caller-set *context* ([`set_context`]) and the per-(context, site)
//! occurrence index — never on wall-clock, thread identity or scheduling.
//! The experiment runner sets the context to a hash of the cell key and the
//! attempt number, so (a) a sweep injects the *same* faults into the *same*
//! cells at any `--threads` value, and (b) a retried cell rolls fresh dice —
//! transient faults stay transient.

#![warn(missing_docs)]

#[cfg(feature = "fault-injection")]
use msopds_telemetry as telemetry;

/// Fault checks evaluated (armed plan only).
#[cfg(feature = "fault-injection")]
static CHECKS: telemetry::Counter = telemetry::Counter::new("faultline.checks");
/// Panics injected.
#[cfg(feature = "fault-injection")]
static PANICS: telemetry::Counter = telemetry::Counter::new("faultline.panics");
/// NaN corruptions injected.
#[cfg(feature = "fault-injection")]
static NANS: telemetry::Counter = telemetry::Counter::new("faultline.nans");
/// Delays injected.
#[cfg(feature = "fault-injection")]
static DELAYS: telemetry::Counter = telemetry::Counter::new("faultline.delays");
/// Trip signals fired.
#[cfg(feature = "fault-injection")]
static TRIPS: telemetry::Counter = telemetry::Counter::new("faultline.trips");

/// What an armed fault site does when it fires.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic at the site (unwinds into the nearest `catch_unwind`).
    Panic,
    /// Poison the value passed to [`corrupt_slice`] / [`corrupt_f64`] with NaN.
    Nan,
    /// Sleep this many milliseconds.
    DelayMs(u64),
    /// Signal the call site to degrade itself ([`fault_trip`] returns true).
    /// The socket layer uses this for short reads/writes, refused accepts and
    /// forced mid-frame disconnects — faults that are not a panic or a sleep
    /// but a *behavior* only the site knows how to perform.
    Trip,
}

/// One `site=kind@rate` rule of a fault plan.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultRule {
    /// Site name the rule applies to (exact match).
    pub site: String,
    /// Fault to inject.
    pub kind: FaultKind,
    /// Firing probability in `[0, 1]`.
    pub rate: f64,
}

/// A parsed fault plan: a decision seed plus a list of site rules.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed mixed into every firing decision.
    pub seed: u64,
    /// Site rules, checked in order; every matching rule gets its own draw.
    pub rules: Vec<FaultRule>,
}

impl FaultPlan {
    /// Parses the `MSOPDS_FAULT_PLAN` syntax (see the crate docs).
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for part in s.split(';').map(str::trim).filter(|p| !p.is_empty()) {
            let (lhs, rhs) =
                part.split_once('=').ok_or_else(|| format!("fault plan: `{part}` is not k=v"))?;
            let (lhs, rhs) = (lhs.trim(), rhs.trim());
            if lhs == "seed" {
                plan.seed = rhs.parse().map_err(|_| format!("fault plan: bad seed `{rhs}`"))?;
                continue;
            }
            let (kind_s, rate) = match rhs.split_once('@') {
                Some((k, r)) => (
                    k.trim(),
                    r.trim()
                        .parse::<f64>()
                        .ok()
                        .filter(|r| (0.0..=1.0).contains(r))
                        .ok_or_else(|| format!("fault plan: bad rate in `{part}`"))?,
                ),
                None => (rhs, 1.0),
            };
            let kind = if kind_s == "panic" {
                FaultKind::Panic
            } else if kind_s == "nan" {
                FaultKind::Nan
            } else if kind_s == "trip" {
                FaultKind::Trip
            } else if let Some(ms) = kind_s.strip_prefix("delay:") {
                FaultKind::DelayMs(
                    ms.parse().map_err(|_| format!("fault plan: bad delay in `{part}`"))?,
                )
            } else {
                return Err(format!("fault plan: unknown kind `{kind_s}` in `{part}`"));
            };
            plan.rules.push(FaultRule { site: lhs.to_string(), kind, rate });
        }
        Ok(plan)
    }
}

/// SplitMix64: the decision hash. Small, seedable, well-mixed.
#[cfg_attr(not(feature = "fault-injection"), allow(dead_code))] // used by tests when disarmed
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// FNV-1a over a site name, so decisions depend on the site string only.
#[cfg_attr(not(feature = "fault-injection"), allow(dead_code))] // used by tests when disarmed
fn site_hash(site: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in site.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

#[cfg(feature = "fault-injection")]
mod armed {
    use super::*;
    use std::cell::{Cell, RefCell};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, Mutex, OnceLock};

    /// Fast gate: true iff a plan with at least one rule is armed.
    pub(super) static ARMED: AtomicBool = AtomicBool::new(false);
    /// The armed plan. `OnceLock<Mutex<…>>` so [`set_plan`] can replace it.
    static PLAN: OnceLock<Mutex<Option<Arc<FaultPlan>>>> = OnceLock::new();

    thread_local! {
        /// Caller-provided decision context (cell key × attempt).
        static CONTEXT: Cell<u64> = const { Cell::new(0) };
        /// Occurrence counters per site hash, reset on every context switch.
        static HITS: RefCell<HashMap<u64, u64>> = RefCell::new(HashMap::new());
    }

    fn plan_slot() -> &'static Mutex<Option<Arc<FaultPlan>>> {
        PLAN.get_or_init(|| Mutex::new(None))
    }

    pub(super) fn install(plan: Option<FaultPlan>) {
        let armed = plan.as_ref().is_some_and(|p| !p.rules.is_empty());
        *plan_slot().lock().unwrap_or_else(|e| e.into_inner()) = plan.map(Arc::new);
        ARMED.store(armed, Ordering::Release);
    }

    pub(super) fn current() -> Option<Arc<FaultPlan>> {
        plan_slot().lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    pub(super) fn set_ctx(key: u64) {
        CONTEXT.with(|c| c.set(key));
        HITS.with(|h| h.borrow_mut().clear());
    }

    /// Draws for `site`: one occurrence index per call, one decision per
    /// matching rule. Returns the first rule that fires.
    pub(super) fn decide(site: &str) -> Option<FaultKind> {
        if !ARMED.load(Ordering::Acquire) {
            return None;
        }
        let plan = current()?;
        let sh = site_hash(site);
        let ctx = CONTEXT.with(|c| c.get());
        let n = HITS.with(|h| {
            let mut h = h.borrow_mut();
            let e = h.entry(sh).or_insert(0);
            *e += 1;
            *e
        });
        CHECKS.incr();
        for (ri, rule) in plan.rules.iter().enumerate() {
            if rule.site != site {
                continue;
            }
            let h = splitmix64(
                plan.seed
                    ^ sh.rotate_left(17)
                    ^ ctx.rotate_left(31)
                    ^ n.rotate_left(47)
                    ^ (ri as u64).rotate_left(7),
            );
            // Top 53 bits → uniform fraction in [0, 1).
            let frac = (h >> 11) as f64 / (1u64 << 53) as f64;
            if frac < rule.rate {
                return Some(rule.kind);
            }
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Public API. Every function exists in both modes so call sites compile
// unconditionally; without the feature the bodies are empty.
// ---------------------------------------------------------------------------

/// Arms `plan` process-wide (replacing any previous plan); `None` disarms.
/// A no-op without the `fault-injection` feature.
pub fn set_plan(plan: Option<FaultPlan>) {
    #[cfg(feature = "fault-injection")]
    armed::install(plan);
    #[cfg(not(feature = "fault-injection"))]
    let _ = plan;
}

/// True when a non-empty plan is armed. Constant `false` without the feature.
#[inline]
pub fn armed() -> bool {
    #[cfg(feature = "fault-injection")]
    {
        armed::ARMED.load(std::sync::atomic::Ordering::Acquire)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        false
    }
}

/// Sets the deterministic decision context for the current thread and resets
/// its per-site occurrence counters. The runner calls this with a hash of
/// (cell key, attempt) before each cell attempt.
#[inline]
pub fn set_context(key: u64) {
    #[cfg(feature = "fault-injection")]
    armed::set_ctx(key);
    #[cfg(not(feature = "fault-injection"))]
    let _ = key;
}

/// A control-flow fault site: panics or sleeps when the armed plan says so.
/// `nan` and `trip` rules do not fire here (they need a value or a
/// site-specific degradation — see [`corrupt_slice`] and [`fault_trip`]).
#[inline]
pub fn fault_point(site: &str) {
    #[cfg(feature = "fault-injection")]
    match armed::decide(site) {
        Some(FaultKind::Panic) => {
            PANICS.incr();
            panic!("faultline: injected panic at `{site}`");
        }
        Some(FaultKind::DelayMs(ms)) => {
            DELAYS.incr();
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(FaultKind::Nan) | Some(FaultKind::Trip) | None => {}
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = site;
}

/// A behavioral fault site: returns `true` when a `trip` rule fires, telling
/// the caller to degrade itself in a site-specific way (read one byte instead
/// of a buffer, refuse the accepted socket, sever the connection mid-frame).
/// `panic` and `delay` rules behave as in [`fault_point`]; constant `false`
/// without the `fault-injection` feature.
#[inline]
pub fn fault_trip(site: &str) -> bool {
    #[cfg(feature = "fault-injection")]
    match armed::decide(site) {
        Some(FaultKind::Trip) => {
            TRIPS.incr();
            true
        }
        Some(FaultKind::Panic) => {
            PANICS.incr();
            panic!("faultline: injected panic at `{site}`");
        }
        Some(FaultKind::DelayMs(ms)) => {
            DELAYS.incr();
            std::thread::sleep(std::time::Duration::from_millis(ms));
            false
        }
        Some(FaultKind::Nan) | None => false,
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        false
    }
}

/// A value fault site: poisons `data[0]` with NaN when a `nan` rule fires
/// (panic/delay rules behave as in [`fault_point`]).
#[inline]
pub fn corrupt_slice(site: &str, data: &mut [f64]) {
    #[cfg(feature = "fault-injection")]
    match armed::decide(site) {
        Some(FaultKind::Nan) => {
            NANS.incr();
            if let Some(v) = data.first_mut() {
                *v = f64::NAN;
            }
        }
        Some(FaultKind::Panic) => {
            PANICS.incr();
            panic!("faultline: injected panic at `{site}`");
        }
        Some(FaultKind::DelayMs(ms)) => {
            DELAYS.incr();
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(FaultKind::Trip) | None => {}
    }
    #[cfg(not(feature = "fault-injection"))]
    let _ = (site, data);
}

/// Scalar variant of [`corrupt_slice`].
#[inline]
pub fn corrupt_f64(site: &str, value: f64) -> f64 {
    let mut v = [value];
    corrupt_slice(site, &mut v);
    v[0]
}

/// Names a fault site. Expands to a call into this crate, so the enclosing
/// crate needs no `cfg` of its own; without the `fault-injection` feature the
/// callee is an empty inline function.
#[macro_export]
macro_rules! fault_point {
    ($site:expr) => {
        $crate::fault_point($site)
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_full_plan() {
        let p =
            FaultPlan::parse("seed=42; xp.cell=panic@0.1; cg.solve=nan; pds=delay:3@0.5").unwrap();
        assert_eq!(p.seed, 42);
        assert_eq!(p.rules.len(), 3);
        assert_eq!(p.rules[0].kind, FaultKind::Panic);
        assert!((p.rules[0].rate - 0.1).abs() < 1e-12);
        assert_eq!(p.rules[1].kind, FaultKind::Nan);
        assert_eq!(p.rules[1].rate, 1.0);
        assert_eq!(p.rules[2].kind, FaultKind::DelayMs(3));
    }

    #[test]
    fn parses_trip_kind() {
        let p = FaultPlan::parse("seed=7;serve_net.read=trip@0.3").unwrap();
        assert_eq!(p.rules[0].kind, FaultKind::Trip);
        assert!((p.rules[0].rate - 0.3).abs() < 1e-12);
    }

    #[test]
    fn rejects_malformed_plans() {
        assert!(FaultPlan::parse("nonsense").is_err());
        assert!(FaultPlan::parse("a=explode").is_err());
        assert!(FaultPlan::parse("a=panic@1.5").is_err());
        assert!(FaultPlan::parse("a=panic@x").is_err());
        assert!(FaultPlan::parse("seed=abc").is_err());
        assert!(FaultPlan::parse("a=delay:@0.5").is_err());
    }

    #[test]
    fn empty_plan_parses_and_disarms() {
        let p = FaultPlan::parse("").unwrap();
        assert!(p.rules.is_empty());
    }

    #[test]
    fn hash_is_stable() {
        // The decision function must never change silently: journaled sweeps
        // replay faults bit-for-bit across versions.
        assert_eq!(splitmix64(0), 0xE220A8397B1DCDAF);
        assert_eq!(site_hash("cg.solve"), site_hash("cg.solve"));
        assert_ne!(site_hash("cg.solve"), site_hash("xp.cell"));
    }

    #[cfg(not(feature = "fault-injection"))]
    mod disarmed {
        use super::*;

        #[test]
        fn everything_is_a_no_op() {
            set_plan(Some(FaultPlan::parse("a=panic").unwrap()));
            assert!(!armed());
            fault_point!("a");
            let mut v = [1.0, 2.0];
            corrupt_slice("a", &mut v);
            assert_eq!(v, [1.0, 2.0]);
            assert_eq!(corrupt_f64("a", 3.5), 3.5);
            set_plan(Some(FaultPlan::parse("a=trip").unwrap()));
            assert!(!fault_trip("a"));
        }
    }

    #[cfg(feature = "fault-injection")]
    mod injecting {
        use super::*;
        use std::panic::{catch_unwind, AssertUnwindSafe};

        /// Plan state is process-global; serialize the tests that arm it.
        static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

        #[test]
        fn rate_one_panics_and_rate_zero_never_does() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("seed=1;boom=panic@1").unwrap()));
            set_context(7);
            assert!(catch_unwind(AssertUnwindSafe(|| fault_point("boom"))).is_err());
            set_plan(Some(FaultPlan::parse("seed=1;boom=panic@0").unwrap()));
            set_context(7);
            fault_point("boom"); // must not panic
            set_plan(None);
        }

        #[test]
        fn decisions_are_deterministic_in_context_and_occurrence() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("seed=3;x=nan@0.5").unwrap()));
            let draws = |ctx: u64| -> Vec<bool> {
                set_context(ctx);
                (0..64).map(|_| corrupt_f64("x", 1.0).is_nan()).collect()
            };
            let a = draws(11);
            let b = draws(11);
            assert_eq!(a, b, "same context must replay identically");
            let c = draws(12);
            assert_ne!(a, c, "different context must reroll");
            let fired = a.iter().filter(|&&f| f).count();
            assert!((10..=54).contains(&fired), "rate 0.5 fired {fired}/64");
            set_plan(None);
        }

        #[test]
        fn trip_fires_at_rate_one_and_only_for_trip_rules() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("seed=5;t=trip@1;u=nan@1").unwrap()));
            set_context(3);
            assert!(fault_trip("t"), "trip rule at rate 1 must fire");
            assert!(!fault_trip("u"), "nan rules must not read as trips");
            // Trip rules are inert at the panic/value entry points.
            fault_point("t");
            assert_eq!(corrupt_f64("t", 4.5), 4.5);
            set_plan(None);
        }

        #[test]
        fn unmatched_sites_never_fire() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("seed=3;x=panic@1").unwrap()));
            set_context(0);
            fault_point("y");
            assert_eq!(corrupt_f64("z", 2.0), 2.0);
            set_plan(None);
        }

        #[test]
        fn rates_are_respected_approximately() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("seed=9;x=nan@0.1").unwrap()));
            let mut fired = 0;
            for ctx in 0..400 {
                set_context(ctx);
                if corrupt_f64("x", 0.0).is_nan() {
                    fired += 1;
                }
            }
            // Binomial(400, 0.1): mean 40, σ ≈ 6.
            assert!((15..=70).contains(&fired), "10% rate fired {fired}/400");
            set_plan(None);
        }

        #[test]
        fn delay_site_sleeps() {
            let _g = LOCK.lock().unwrap_or_else(|e| e.into_inner());
            set_plan(Some(FaultPlan::parse("d=delay:20@1").unwrap()));
            set_context(0);
            let t0 = std::time::Instant::now();
            fault_point("d");
            assert!(t0.elapsed() >= std::time::Duration::from_millis(15));
            set_plan(None);
        }
    }
}
