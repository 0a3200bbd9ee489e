//! Cell-level execution: one (dataset, method, knobs, seed) game per cell,
//! parallelized across worker threads with crossbeam scoped threads.
//!
//! Fault tolerance: every cell runs under `catch_unwind` with a bounded retry
//! budget, permanent failures become typed [`CellError`]s instead of tearing
//! the sweep down, and an optional JSONL journal (see [`crate::journal`])
//! records each outcome as it lands so an interrupted run can be resumed.

use std::panic::{self, AssertUnwindSafe};

use crossbeam::channel;
use msopds_faultline as faultline;
use msopds_gameplay::{run_game, AttackMethod, GameConfig};
use msopds_recdata::{sample_market, Dataset, Market};
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

use crate::journal::{latest_outcomes, CellError, CellErrorKind, CellKey, Journal, JournalEntry};

/// Experiment cells (games) executed across all [`run_cells`] calls.
static CELLS_RUN: telemetry::Counter = telemetry::Counter::new("xp.cells");
/// Cell attempts that panicked (caught, not fatal).
static CELL_PANICS: telemetry::Counter = telemetry::Counter::new("xp.cell_panics");
/// Retries granted after a panicked attempt.
static CELL_RETRIES: telemetry::Counter = telemetry::Counter::new("xp.cell_retries");
/// Cells that exhausted their retry budget.
static CELLS_FAILED: telemetry::Counter = telemetry::Counter::new("xp.cells_failed");
/// Cells skipped on resume because the journal already has their result.
static CELLS_RESUMED: telemetry::Counter = telemetry::Counter::new("xp.cells_resumed");

use crate::config::{DatasetKind, XpConfig};

/// One unit of work: a fully-specified game.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Dataset to generate.
    pub dataset: DatasetKind,
    /// Attacker method.
    pub method: AttackMethod,
    /// Game parameters (budgets, opponents, seed).
    pub game: GameConfig,
    /// Free-form knob value recorded in the result (b, #opponents, b_op, …).
    pub knob: f64,
    /// Report label (distinguishes ablation variants that share a method name).
    pub label: String,
    /// Detector-pipeline spec run between the players' moves and the victim's
    /// retraining (e.g. `"off"`, `"moderator"`, `"degree+spectral"`; see
    /// [`msopds_gameplay::ShadowBanPolicy::from_spec`]). `None` plays the
    /// undefended game.
    pub defense: Option<String>,
}

/// One measured result row (seed-averaged by [`run_cells`]'s caller or raw).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Measurement {
    /// Dataset display name.
    pub dataset: String,
    /// Method display name.
    pub method: String,
    /// The experiment's swept knob value.
    pub knob: f64,
    /// Defense-pipeline spec this cell ran under (`""` for undefended cells
    /// of the paper experiments, `"off"`/`"degree"`/`"moderator"`/… otherwise).
    pub defense: String,
    /// Average predicted rating r̄.
    pub rbar: f64,
    /// HitRate@3.
    pub hr3: f64,
    /// HitRate@10 over the padded ranking pool (see
    /// [`msopds_gameplay::ranking_pool`]).
    pub hr10: f64,
    /// Seed this game used.
    pub seed: u64,
}

/// Infrastructure failure of a sweep (I/O, corruption, channel teardown) —
/// *not* an individual cell failure, which is reported in [`RunReport`].
#[derive(Debug)]
pub enum RunError {
    /// Journal file I/O failed.
    Journal(std::io::Error),
    /// The journal is corrupt before its final line.
    JournalParse {
        /// 1-based line number of the offending entry.
        line: usize,
        /// Parser diagnostic.
        message: String,
    },
    /// An internal channel closed early (a worker died outside `catch_unwind`).
    ChannelClosed(&'static str),
    /// A worker thread itself panicked (outside the per-cell guard).
    WorkerPanic(String),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Journal(e) => write!(f, "journal I/O error: {e}"),
            RunError::JournalParse { line, message } => {
                write!(f, "corrupt journal at line {line}: {message}")
            }
            RunError::ChannelClosed(which) => write!(f, "{which} channel closed unexpectedly"),
            RunError::WorkerPanic(msg) => write!(f, "worker thread panicked: {msg}"),
        }
    }
}

impl std::error::Error for RunError {}

/// How [`run_cells_with`] journals, resumes and retries.
#[derive(Clone, Debug, Default)]
pub struct RunOptions {
    /// Experiment id recorded in each journal key (`table3`, `fig6`, …).
    pub experiment: String,
    /// Append each cell outcome to this JSONL file.
    pub journal: Option<std::path::PathBuf>,
    /// Skip cells whose success is already journaled (failures re-run).
    pub resume: bool,
    /// Extra attempts granted to a panicking cell (0 = fail on first panic).
    pub retries: usize,
}

impl RunOptions {
    /// Options for experiment `experiment` with the default retry budget.
    pub fn for_experiment(experiment: &str) -> Self {
        Self { experiment: experiment.to_string(), retries: DEFAULT_RETRIES, ..Self::default() }
    }
}

/// Default extra attempts for a panicking cell.
pub const DEFAULT_RETRIES: usize = 1;

/// A cell that produced no measurement within its retry budget.
#[derive(Clone, Debug)]
pub struct FailedCell {
    /// Which cell.
    pub key: CellKey,
    /// Why it failed.
    pub error: CellError,
}

/// What a sweep produced.
#[derive(Clone, Debug, Default)]
pub struct RunReport {
    /// Successful measurements — journal-replayed and freshly executed.
    pub measurements: Vec<Measurement>,
    /// Cells that exhausted their retry budget this run.
    pub failures: Vec<FailedCell>,
    /// Cells skipped because the journal already had their measurement.
    pub resumed: usize,
    /// Cells actually executed (including re-runs of journaled failures).
    pub executed: usize,
}

/// Generates the dataset and market for a cell. Market sampling is seeded by
/// the game seed so every method in a (dataset, seed) group sees the *same*
/// market — the paper's controlled comparison.
pub fn materialize(
    kind: DatasetKind,
    cfg: &XpConfig,
    seed: u64,
    n_opponents: usize,
) -> (Dataset, Market) {
    let data = kind.spec().scaled(cfg.scale).generate(seed);
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xA11CE);
    let market = sample_market(&data, &cfg.demographics(), n_opponents.max(1), &mut rng);
    (data, market)
}

/// Runs one cell to completion (the per-attempt body; may panic).
fn execute_cell(cell: &Cell, cfg: &XpConfig) -> Measurement {
    let _cell_span = telemetry::span("cell");
    CELLS_RUN.incr();
    faultline::fault_point!("xp.cell");
    let (data, market) = materialize(cell.dataset, cfg, cell.game.seed, cell.game.n_opponents);
    let outcome = if let Some(spec) = &cell.defense {
        let policy = msopds_gameplay::ShadowBanPolicy::from_spec(spec)
            .unwrap_or_else(|e| panic!("invalid defense spec {spec:?}: {e}"));
        msopds_gameplay::run_defended_game_with(&data, &market, cell.method, &cell.game, &policy).0
    } else {
        run_game(&data, &market, cell.method, &cell.game)
    };
    Measurement {
        dataset: cell.dataset.name().to_string(),
        method: cell.label.clone(),
        knob: cell.knob,
        defense: cell.defense.clone().unwrap_or_default(),
        rbar: outcome.avg_rating,
        hr3: outcome.hit_rate_at_3,
        hr10: outcome.hit_rate_at_10,
        seed: cell.game.seed,
    }
}

/// Renders a caught panic payload for diagnostics.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `cell` under `catch_unwind` with `retries` extra attempts. The
/// fault-injection context is re-keyed per attempt so injected faults are
/// deterministic per (cell, attempt) and retries reroll them.
fn run_cell_guarded(
    cell: &Cell,
    cfg: &XpConfig,
    key: &CellKey,
    retries: usize,
) -> Result<Measurement, CellError> {
    let mut last = String::new();
    for attempt in 0..=retries {
        faultline::set_context(key.context_hash(attempt));
        let result = panic::catch_unwind(AssertUnwindSafe(|| execute_cell(cell, cfg)));
        faultline::set_context(0);
        match result {
            Ok(m) => return Ok(m),
            Err(payload) => {
                CELL_PANICS.incr();
                last = panic_message(payload);
                if attempt < retries {
                    CELL_RETRIES.incr();
                }
            }
        }
    }
    CELLS_FAILED.incr();
    Err(CellError { kind: CellErrorKind::Panic, message: last, attempts: retries + 1 })
}

/// Runs all cells across `cfg.threads` workers with journaling, resume and
/// per-cell retry per `opts`. Measurements come back in completion order;
/// callers needing a canonical order go through [`average_over_seeds`], which
/// is summation-order independent.
pub fn run_cells_with(
    cells: Vec<Cell>,
    cfg: &XpConfig,
    opts: &RunOptions,
) -> Result<RunReport, RunError> {
    let mut report = RunReport::default();

    // ---- resume: replay journaled successes, re-run journaled failures ----
    let mut todo = Vec::with_capacity(cells.len());
    let journaled = match (&opts.journal, opts.resume) {
        (Some(path), true) if path.exists() => {
            latest_outcomes(&crate::journal::load_journal(path)?, &opts.experiment)
        }
        _ => Default::default(),
    };
    for cell in cells {
        let key = CellKey::of(&opts.experiment, &cell);
        match journaled.get(&key).and_then(|e| e.ok.clone()) {
            Some(m) => {
                CELLS_RESUMED.incr();
                report.resumed += 1;
                report.measurements.push(m);
            }
            None => todo.push((key, cell)),
        }
    }
    let mut journal = match &opts.journal {
        Some(path) => Some(Journal::open(path, opts.resume)?),
        None => None,
    };
    if todo.is_empty() {
        return Ok(report);
    }

    let threads = cfg.threads.clamp(1, todo.len());
    // Split the thread budget between the two parallelism levels so they
    // compose without oversubscription: cells take as many workers as there
    // are cells (up to the budget), and whatever remains — plus the worker's
    // own thread — becomes kernel-pool lanes inside each game.
    let kernel_lanes = (cfg.threads + 1).saturating_sub(threads).max(1);
    msopds_autograd::pool::configure_threads(kernel_lanes);
    let (work_tx, work_rx) = channel::unbounded::<(CellKey, Cell)>();
    let (res_tx, res_rx) = channel::unbounded::<(CellKey, Result<Measurement, CellError>)>();
    report.executed = todo.len();
    for job in todo {
        work_tx.send(job).map_err(|_| RunError::ChannelClosed("work"))?;
    }
    drop(work_tx);

    let retries = opts.retries;
    let scope_result = crossbeam::scope(|scope| {
        for _ in 0..threads {
            let work_rx = work_rx.clone();
            let res_tx = res_tx.clone();
            let cfg = cfg.clone();
            scope.spawn(move |_| {
                while let Ok((key, cell)) = work_rx.recv() {
                    let outcome = run_cell_guarded(&cell, &cfg, &key, retries);
                    // A closed result channel means the collector bailed
                    // (journal I/O error) — drain nothing further and exit.
                    if res_tx.send((key, outcome)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(res_tx);

        // Collector: journal each outcome the moment it lands, then fold it
        // into the report. On journal failure, dropping `res_rx` (by
        // returning) unblocks the workers, and the scope joins them.
        for (key, outcome) in res_rx.iter() {
            if let Some(j) = journal.as_mut() {
                j.append(&JournalEntry {
                    key: key.clone(),
                    ok: outcome.as_ref().ok().cloned(),
                    err: outcome.as_ref().err().cloned(),
                })?;
            }
            match outcome {
                Ok(m) => report.measurements.push(m),
                Err(error) => report.failures.push(FailedCell { key, error }),
            }
        }
        Ok(report)
    });
    match scope_result {
        Ok(collected) => collected,
        Err(payload) => Err(RunError::WorkerPanic(panic_message(payload))),
    }
}

/// Runs all cells with default options (no journal, default retry budget) and
/// returns measurements in completion order. Cells that fail permanently are
/// *dropped* from the result — use [`run_cells_with`] to observe them.
pub fn run_cells(cells: Vec<Cell>, cfg: &XpConfig) -> Result<Vec<Measurement>, RunError> {
    let opts = RunOptions { retries: DEFAULT_RETRIES, ..RunOptions::default() };
    Ok(run_cells_with(cells, cfg, &opts)?.measurements)
}

/// Averages measurements over seeds, grouped by (dataset, method, knob).
///
/// Members of each group are sorted by seed before summation, so the result
/// is **bit-identical regardless of arrival order** — the property that makes
/// resumed runs reproduce uninterrupted ones exactly.
pub fn average_over_seeds(measurements: &[Measurement]) -> Vec<Measurement> {
    use std::collections::BTreeMap;
    let mut groups: BTreeMap<(String, String, String, i64), Vec<&Measurement>> = BTreeMap::new();
    for m in measurements {
        let key = (
            m.dataset.clone(),
            m.method.clone(),
            m.defense.clone(),
            (m.knob * 1000.0).round() as i64,
        );
        groups.entry(key).or_default().push(m);
    }
    groups
        .into_iter()
        .map(|((dataset, method, defense, knob_k), mut members)| {
            // Total order (seed, then value bits) so even pathological inputs
            // with duplicate seeds sum in a canonical order.
            members.sort_by_key(|m| (m.seed, m.rbar.to_bits(), m.hr3.to_bits(), m.hr10.to_bits()));
            let (mut rbar, mut hr3, mut hr10) = (0.0, 0.0, 0.0);
            for m in &members {
                rbar += m.rbar;
                hr3 += m.hr3;
                hr10 += m.hr10;
            }
            let count = members.len() as f64;
            Measurement {
                dataset,
                method,
                knob: knob_k as f64 / 1000.0,
                defense,
                rbar: rbar / count,
                hr3: hr3 / count,
                hr10: hr10 / count,
                seed: 0,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averaging_groups_by_key() {
        let m = |method: &str, knob: f64, rbar: f64, seed: u64| Measurement {
            dataset: "d".into(),
            method: method.into(),
            knob,
            defense: String::new(),
            rbar,
            hr3: rbar / 10.0,
            hr10: rbar / 5.0,
            seed,
        };
        let avg = average_over_seeds(&[
            m("A", 2.0, 1.0, 1),
            m("A", 2.0, 3.0, 2),
            m("A", 3.0, 5.0, 1),
            m("B", 2.0, 7.0, 1),
        ]);
        assert_eq!(avg.len(), 3);
        let a2 = avg.iter().find(|x| x.method == "A" && x.knob == 2.0).unwrap();
        assert!((a2.rbar - 2.0).abs() < 1e-12);
        assert!((a2.hr3 - 0.2).abs() < 1e-12);
    }

    #[test]
    fn averaging_is_order_independent_bitwise() {
        // Values chosen so naive float summation order would differ in ulps.
        let m = |rbar: f64, seed: u64| Measurement {
            dataset: "d".into(),
            method: "A".into(),
            knob: 1.0,
            defense: String::new(),
            rbar,
            hr3: rbar * 0.3,
            hr10: rbar * 0.7,
            seed,
        };
        let a = [m(0.1, 1), m(1e15, 2), m(-1e15, 3), m(0.2, 4)];
        let mut b = a.clone();
        b.reverse();
        let (ra, rb) = (average_over_seeds(&a), average_over_seeds(&b));
        assert_eq!(ra.len(), 1);
        assert_eq!(ra[0].rbar.to_bits(), rb[0].rbar.to_bits());
        assert_eq!(ra[0].hr3.to_bits(), rb[0].hr3.to_bits());
    }

    #[test]
    fn empty_cells_is_empty() {
        let cfg = XpConfig::quick();
        assert!(run_cells(Vec::new(), &cfg).unwrap().is_empty());
    }
}
