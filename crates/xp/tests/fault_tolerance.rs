//! End-to-end fault tolerance: kill/resume bit-identity, panic containment,
//! and (under `--features fault-injection`) recovery from injected faults.
//!
//! Tests that execute cells or touch the process-global fault plan serialize
//! on [`SERIAL`]; pure functions (averaging) run freely.

use std::path::PathBuf;
use std::sync::Mutex;

use msopds_xp::{
    average_over_seeds, load_journal, run_cells_with, table3_cells, to_json, Cell, Measurement,
    RunOptions, XpConfig,
};
use proptest::prelude::*;

static SERIAL: Mutex<()> = Mutex::new(());

/// Two cheap baseline methods × two seeds on the quick Ciao config: four
/// independent cells, enough for a meaningful resume.
fn tiny() -> (XpConfig, Vec<Cell>) {
    let mut cfg = XpConfig::quick();
    cfg.seeds = vec![11, 22];
    cfg.budgets = vec![2];
    cfg.threads = 2;
    let cells: Vec<Cell> = table3_cells(&cfg)
        .into_iter()
        .filter(|c| c.label == "Random" || c.label == "Popular")
        .collect();
    assert_eq!(cells.len(), 4);
    (cfg, cells)
}

fn tmp_journal(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("msopds-xp-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn killed_run_resumes_to_bit_identical_aggregates() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, cells) = tiny();
    let path = tmp_journal("resume");

    // Uninterrupted journaled run: the reference report.
    let opts = RunOptions {
        experiment: "t".into(),
        journal: Some(path.clone()),
        resume: false,
        retries: 0,
    };
    let full = run_cells_with(cells.clone(), &cfg, &opts).unwrap();
    assert_eq!(full.measurements.len(), 4);
    assert!(full.failures.is_empty());
    let reference = to_json(&average_over_seeds(&full.measurements));

    // Simulate a hard kill mid-append: keep the first journal line intact and
    // leave a truncated fragment of the second.
    let text = std::fs::read_to_string(&path).unwrap();
    let first_nl = text.find('\n').unwrap();
    std::fs::write(&path, &text[..first_nl + 30]).unwrap();

    // Resume re-runs everything the truncated journal lost.
    let resumed =
        run_cells_with(cells, &cfg, &RunOptions { resume: true, ..opts.clone() }).unwrap();
    assert_eq!(resumed.resumed, 1, "exactly one cell survived the kill");
    assert_eq!(resumed.executed, 3);
    assert!(resumed.failures.is_empty());
    assert_eq!(
        to_json(&average_over_seeds(&resumed.measurements)),
        reference,
        "resumed aggregates must be bit-identical to the uninterrupted run"
    );

    // The journal now covers all four cells again.
    let entries = load_journal(&path).unwrap();
    let keys: std::collections::BTreeSet<_> = entries.iter().map(|e| e.key.clone()).collect();
    assert_eq!(keys.len(), 4);
    std::fs::remove_file(&path).ok();
}

#[test]
fn panicking_cell_becomes_typed_error_not_a_crash() {
    let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (cfg, cells) = tiny();
    // A NaN scale trips the dataset generator's `scale >= 1` assertion — a
    // stand-in for any in-cell assertion failure.
    let broken_cfg = XpConfig { scale: f64::NAN, ..cfg };
    let opts = RunOptions { experiment: "t".into(), journal: None, resume: false, retries: 1 };
    let report = run_cells_with(cells, &broken_cfg, &opts).unwrap();
    assert!(report.measurements.is_empty());
    assert_eq!(report.failures.len(), 4, "every cell fails, none tears the sweep down");
    for f in &report.failures {
        assert_eq!(f.error.attempts, 2, "retry budget must be consumed");
        assert!(!f.error.message.is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Journal replay order never changes seed-averaged aggregates, bit for
    /// bit — the invariant resume correctness rests on.
    #[test]
    fn averaging_is_replay_order_invariant(
        rows in proptest::collection::vec(
            (0u8..9, 1u64..50, -10.0..10.0f64, 0.0..1.0f64),
            1..40,
        ),
        perm_seed in 0u64..u64::MAX,
    ) {
        let measurements: Vec<Measurement> = rows
            .iter()
            .map(|&(group, seed, rbar, hr3)| Measurement {
                dataset: format!("d{}", group / 3),
                method: format!("m{}", group % 3),
                knob: 1.0,
                defense: String::new(),
                rbar,
                hr3,
                hr10: hr3 * 1.5,
                seed,
            })
            .collect();
        // Fisher–Yates driven by splitmix64: an arbitrary replay order.
        let mut shuffled = measurements.clone();
        let mut state = perm_seed;
        let mut next = || {
            state = state.wrapping_add(0x9E3779B97F4A7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
            z ^ (z >> 31)
        };
        for i in (1..shuffled.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            shuffled.swap(i, j);
        }
        let a = average_over_seeds(&measurements);
        let b = average_over_seeds(&shuffled);
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(&x.dataset, &y.dataset);
            prop_assert_eq!(&x.method, &y.method);
            prop_assert_eq!(x.rbar.to_bits(), y.rbar.to_bits());
            prop_assert_eq!(x.hr3.to_bits(), y.hr3.to_bits());
            prop_assert_eq!(x.hr10.to_bits(), y.hr10.to_bits());
        }
    }
}

/// Injected-fault drills: only meaningful when the fault sites are compiled
/// in (`cargo test -p msopds-xp --features fault-injection`).
#[cfg(feature = "fault-injection")]
mod injection {
    use super::*;
    use msopds_faultline::{set_plan, FaultPlan};

    #[test]
    fn injected_cell_panics_are_contained_and_resume_recovers() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (cfg, cells) = tiny();

        // Fault-free reference aggregates.
        set_plan(None);
        let opts = RunOptions { experiment: "t".into(), journal: None, resume: false, retries: 0 };
        let clean = run_cells_with(cells.clone(), &cfg, &opts).unwrap();
        let reference = to_json(&average_over_seeds(&clean.measurements));

        // Panic in roughly half the cells, no retries: failures must be
        // journaled as typed errors while the sweep still completes.
        let path = tmp_journal("inject");
        let plan = FaultPlan::parse("seed=9;xp.cell=panic@0.5").unwrap();
        set_plan(Some(plan));
        let opts = RunOptions { journal: Some(path.clone()), ..opts };
        let faulted = run_cells_with(cells.clone(), &cfg, &opts).unwrap();
        set_plan(None);
        assert!(!faulted.failures.is_empty(), "the deterministic plan must fell at least one cell");
        assert_eq!(faulted.measurements.len() + faulted.failures.len(), 4);

        // Resume with faults cleared: journaled successes replay, failures
        // re-run, aggregates match the fault-free reference bit for bit.
        let resumed = run_cells_with(cells, &cfg, &RunOptions { resume: true, ..opts }).unwrap();
        assert_eq!(resumed.resumed, faulted.measurements.len());
        assert_eq!(resumed.executed, faulted.failures.len());
        assert!(resumed.failures.is_empty());
        assert_eq!(to_json(&average_over_seeds(&resumed.measurements)), reference);
        std::fs::remove_file(&path).ok();
    }

    /// Binaries arm `MSOPDS_FAULT_PLAN` through `RuntimeConfig::parse` and
    /// `install`; the parsed plan is the one the drills arm by hand.
    #[test]
    fn env_plan_arms_through_runtime_config() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        std::env::set_var("MSOPDS_FAULT_PLAN", "seed=9;xp.cell=panic@0.5");
        let parsed = msopds_xp::RuntimeConfig::parse(&[]);
        std::env::remove_var("MSOPDS_FAULT_PLAN");
        let (rt, _) = parsed.expect("a valid plan parses");
        assert_eq!(rt.fault_plan, Some(FaultPlan::parse("seed=9;xp.cell=panic@0.5").unwrap()));
        rt.install();
        assert!(msopds_faultline::armed(), "install must arm the parsed plan");
        set_plan(None);
    }

    #[test]
    fn retries_reroll_injected_faults() {
        let _guard = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        let (cfg, cells) = tiny();
        // 50% panic rate with a generous retry budget: every cell should get
        // through because each attempt rerolls its fault decision.
        let plan = FaultPlan::parse("seed=9;xp.cell=panic@0.5").unwrap();
        set_plan(Some(plan));
        let opts = RunOptions { experiment: "t".into(), journal: None, resume: false, retries: 6 };
        let report = run_cells_with(cells, &cfg, &opts).unwrap();
        set_plan(None);
        assert!(
            report.failures.is_empty(),
            "6 retries at p=0.5 must recover every cell: {:?}",
            report.failures
        );
        assert_eq!(report.measurements.len(), 4);
    }
}
