//! # msopds-xp
//!
//! The experiment harness regenerating every table and figure of the MSOPDS
//! evaluation (§VI): Table III (single-opponent comparison), Fig. 6 (number
//! of opponents), Fig. 7 (opponent capacity), Fig. 8 (action categories) and
//! Fig. 9 (real vs fake accounts), plus the attack × defense zoo matrix
//! (every attack against every shadow-ban policy, HR@10-lift grid). Runs
//! cells in parallel, averages over seeds, and renders paper-shaped reports.
//!
//! Use the `repro` binary:
//!
//! ```text
//! cargo run --release -p msopds-xp --bin repro -- table3 --quick
//! cargo run --release -p msopds-xp --bin repro -- matrix --quick
//! cargo run --release -p msopds-xp --bin repro -- all
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod experiments;
pub mod journal;
pub mod matrix;
pub mod runner;
pub mod serving;

pub use config::{DatasetKind, RuntimeConfig, XpConfig};
pub use experiments::{
    defense_cells, fig6_cells, fig7_cells, fig8_cells, fig9_cells, render_table, run_experiment,
    sweep_methods, table3_cells, to_json, Variant,
};
pub use journal::{load_journal, CellError, CellErrorKind, CellKey, Journal, JournalEntry};
pub use matrix::{
    attack_by_name, matrix_attacks, matrix_cells, matrix_defenses, matrix_grid, render_grid,
    GridCell, MatrixGrid,
};
pub use runner::{
    average_over_seeds, materialize, run_cells, run_cells_with, Cell, FailedCell, Measurement,
    RunError, RunOptions, RunReport, DEFAULT_RETRIES,
};
pub use serving::{train_clean_victim, write_victim_snapshot};
