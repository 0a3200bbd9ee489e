//! `repro` — regenerate the paper's tables and figures.
//!
//! Usage: `repro <table3|fig6|fig7|fig8|fig9|defense|matrix|snapshot|all>
//! [--quick] [--scale N] [--seeds a,b,...] [--attacks A,B] [--defenses x,y]
//! [--threads N] [--backend dense|sparse] [--out DIR] [--metrics-out FILE]
//! [--journal FILE] [--resume] [--retries N] [--snapshot-out FILE]`
//!
//! `defense` plays four attacks with and without the `moderator` detector
//! stage of the shadow-ban pipeline (knob 0 = undefended, knob 1 =
//! moderated), saved to `defense.json`.
//!
//! `matrix` runs the attack × defense zoo (every attack against every
//! shadow-ban policy spec) and reports an HR@10-lift grid against the
//! clean None/off corner, saved to `matrix.json`; `--attacks`/`--defenses`
//! select axis subsets (the baseline corner is injected automatically).
//!
//! Runtime flags (threads, backend, metrics, journaling, retries) are parsed
//! by [`RuntimeConfig`] — one parse point shared with the `MSOPDS_THREADS`,
//! `MSOPDS_BACKEND`, `MSOPDS_METRICS` and `MSOPDS_FAULT_PLAN` environment
//! variables; the flags win over the environment. This file only parses the
//! experiment-shape flags (`--quick`, `--scale`, `--seeds`, `--out`).
//!
//! `--metrics-out FILE` enables telemetry recording and writes the collected
//! span timings, counters and gauges as JSON when the run completes
//! (equivalently: set `MSOPDS_METRICS=FILE`).
//!
//! `--backend sparse` runs every model on the CSR/SpMM graph backend (see
//! DESIGN.md §11); results agree with the default dense backend to ≤1e-10.
//!
//! Fault tolerance: `--journal FILE` appends every finished cell to a JSONL
//! journal; `--resume` replays journaled successes instead of re-running them
//! (journaled failures re-run), so a killed sweep picks up where it stopped
//! and produces bit-identical aggregates. `--retries N` grants a panicking
//! cell N extra attempts (default 1). Cells that still fail are reported and
//! the process exits with status 3. Builds with the `fault-injection` feature
//! honor `MSOPDS_FAULT_PLAN` (e.g. `seed=42;xp.cell=panic@0.1`) for drills.
//!
//! Snapshots: `--snapshot-out FILE` trains the clean victim (first dataset ×
//! first seed, same victim config as the sweep) after the experiments finish
//! and persists its model snapshot for the `serve` binary; the `snapshot`
//! experiment id does *only* that, skipping the sweep entirely.
//!
//! Exit status: 0 success, 2 usage error, 3 cells failed permanently,
//! 1 infrastructure error (journal I/O or corruption).

use std::path::PathBuf;

use msopds_xp::{
    fig6_cells, fig7_cells, fig8_cells, fig9_cells, render_table, run_cells_with, table3_cells,
    to_json, RunError, RuntimeConfig, XpConfig,
};

const USAGE: &str = "usage: repro <table3|fig6|fig7|fig8|fig9|defense|matrix|snapshot|all> [--quick] [--scale N] [--seeds a,b] [--attacks A,B] [--defenses x,y] [--threads N] [--backend dense|sparse] [--out DIR] [--metrics-out FILE] [--journal FILE] [--resume] [--retries N] [--snapshot-out FILE]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        eprintln!("{USAGE}");
        std::process::exit(2);
    }

    // Runtime knobs: env defaults overlaid with CLI flags, one parse point.
    let runtime = RuntimeConfig::builder()
        .parse_cli(&args)
        .and_then(|(builder, rest)| Ok((builder.build()?, rest)));
    let (runtime, rest) = match runtime {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };

    // Experiment-shape flags.
    if rest.is_empty() {
        eprintln!("missing experiment id\n{USAGE}");
        std::process::exit(2);
    }
    let which = rest[0].clone();
    let mut cfg = XpConfig::default();
    let mut out_dir = PathBuf::from("target/xp-results");
    let mut attacks_flag: Option<String> = None;
    let mut defenses_flag: Option<String> = None;
    let mut i = 1;
    while i < rest.len() {
        match rest[i].as_str() {
            "--quick" => cfg = XpConfig::quick(),
            "--scale" => {
                i += 1;
                cfg.scale = rest[i].parse().expect("--scale takes a number");
            }
            "--seeds" => {
                i += 1;
                cfg.seeds = rest[i]
                    .split(',')
                    .map(|s| s.parse().expect("--seeds takes comma-separated integers"))
                    .collect();
            }
            "--out" => {
                i += 1;
                out_dir = PathBuf::from(&rest[i]);
            }
            "--attacks" => {
                i += 1;
                attacks_flag = Some(rest[i].clone());
            }
            "--defenses" => {
                i += 1;
                defenses_flag = Some(rest[i].clone());
            }
            other => {
                eprintln!("unknown flag {other}");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    runtime.apply_to(&mut cfg);
    runtime.install();
    std::fs::create_dir_all(&out_dir).expect("create output dir");

    // The attack × defense matrix has its own grid-shaped report, so it is
    // handled here rather than in the table/figure loop (and is not part of
    // `all` — run `repro matrix` explicitly).
    if which == "matrix" {
        let attacks = match &attacks_flag {
            None => msopds_xp::matrix_attacks(),
            Some(names) => names
                .split(',')
                .map(|n| {
                    msopds_xp::attack_by_name(n.trim()).unwrap_or_else(|| {
                        eprintln!("unknown attack {n:?}\n{USAGE}");
                        std::process::exit(2);
                    })
                })
                .collect(),
        };
        let defenses: Vec<String> = match &defenses_flag {
            None => msopds_xp::matrix_defenses(),
            Some(specs) => specs.split(',').map(|s| s.trim().to_string()).collect(),
        };
        let started = std::time::Instant::now();
        let cells = match msopds_xp::matrix_cells(&cfg, &attacks, &defenses) {
            Ok(cells) => cells,
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "[matrix] running {} games ({} attacks × {} defenses × {} seeds) on {} threads…",
            cells.len(),
            attacks.len(),
            defenses.len(),
            cfg.seeds.len(),
            cfg.threads.max(1)
        );
        let opts = runtime.run_options("matrix", runtime.resume);
        let report = match run_cells_with(cells, &cfg, &opts) {
            Ok(report) => report,
            Err(e) => {
                eprintln!("repro: {e}");
                std::process::exit(1);
            }
        };
        if report.resumed > 0 {
            eprintln!("[matrix] resumed {} cells from the journal", report.resumed);
        }
        for f in &report.failures {
            eprintln!(
                "[matrix] FAILED cell {}/{}/seed={} after {} attempts: {}",
                f.key.method, f.key.defense, f.key.seed, f.error.attempts, f.error.message
            );
        }
        let averaged = msopds_xp::average_over_seeds(&report.measurements);
        let grid = msopds_xp::matrix_grid(&averaged, &attacks, &defenses);
        runtime.export_metrics();
        match grid {
            Ok(grid) => {
                println!("{}", msopds_xp::render_grid(&grid));
                let json_path = out_dir.join("matrix.json");
                let doc = serde_json::to_string_pretty(&grid).expect("grid serializes");
                std::fs::write(&json_path, doc).expect("write matrix json");
                eprintln!(
                    "[matrix] done in {:.1?}; grid saved to {}",
                    started.elapsed(),
                    json_path.display()
                );
            }
            Err(e) => {
                eprintln!("repro: incomplete grid: {e}");
                if report.failures.is_empty() {
                    std::process::exit(1);
                }
            }
        }
        if !report.failures.is_empty() {
            eprintln!("repro: {} cells failed permanently", report.failures.len());
            std::process::exit(3);
        }
        return;
    }

    let mut failed_cells = 0usize;
    // A fresh (non-`--resume`) run truncates the journal once, on the first
    // experiment; later experiments of an `all` sweep append so one file
    // holds the whole run. Resumed entries are keyed by experiment id, so
    // appending never causes a cross-experiment skip.
    let mut journal_started = runtime.resume;
    let mut run_one = |id: &str| -> Result<(), RunError> {
        let started = std::time::Instant::now();
        let (cells, knob) = match id {
            "table3" => (table3_cells(&cfg), "b"),
            "fig6" => (fig6_cells(&cfg), "#opp"),
            "fig7" => (fig7_cells(&cfg), "b_op"),
            "fig8" => (fig8_cells(&cfg), "b"),
            "fig9" => (fig9_cells(&cfg), "b"),
            "defense" => (msopds_xp::defense_cells(&cfg), "moderated"),
            other => {
                eprintln!("unknown experiment {other}");
                std::process::exit(2);
            }
        };
        eprintln!(
            "[{id}] running {} games on {} threads ({} backend)…",
            cells.len(),
            cfg.threads.max(1),
            cfg.backend
        );
        let opts = runtime.run_options(id, journal_started);
        journal_started = true;
        let report = run_cells_with(cells, &cfg, &opts)?;
        if report.resumed > 0 {
            eprintln!("[{id}] resumed {} cells from the journal", report.resumed);
        }
        for f in &report.failures {
            eprintln!(
                "[{id}] FAILED cell {}/{}/knob={}/seed={} after {} attempts: {}",
                f.key.dataset,
                f.key.method,
                f.key.knob_milli as f64 / 1000.0,
                f.key.seed,
                f.error.attempts,
                f.error.message
            );
        }
        failed_cells += report.failures.len();
        let rows = msopds_xp::average_over_seeds(&report.measurements);
        let title = match id {
            "table3" => "Table III: target item r̄ and HR@3 vs ConsisRec, single opponent",
            "fig6" => "Fig. 6: impact of the number of opponents (b = 5)",
            "fig7" => "Fig. 7: impact of the opponent's capacity (b = 5, 1 opponent)",
            "fig8" => "Fig. 8: effect of poisoning-action categories (Epinions)",
            "fig9" => "Fig. 9: real users vs fake accounts (Epinions)",
            "defense" => "Extension: attacks vs moderator detection (Epinions, b = 5)",
            _ => unreachable!(),
        };
        println!("{}", render_table(title, knob, &rows));
        let json_path = out_dir.join(format!("{id}.json"));
        std::fs::write(&json_path, to_json(&rows)).expect("write results json");
        eprintln!(
            "[{id}] done in {:.1?}; results saved to {}",
            started.elapsed(),
            json_path.display()
        );
        Ok(())
    };

    if which == "snapshot" && runtime.snapshot_out.is_none() {
        eprintln!("the snapshot experiment requires --snapshot-out FILE\n{USAGE}");
        std::process::exit(2);
    }
    let outcome: Result<(), RunError> = if which == "snapshot" {
        Ok(()) // snapshot-only invocation: no sweep, persisted below.
    } else if which == "all" {
        ["table3", "fig6", "fig7", "fig8", "fig9", "defense"].iter().try_for_each(|id| run_one(id))
    } else {
        run_one(&which)
    };
    // Persist the clean victim for the `serve` read path after the sweep, so
    // a single invocation can both reproduce a figure and hand off a model.
    if let Some(path) = &runtime.snapshot_out {
        let started = std::time::Instant::now();
        eprintln!("[snapshot] training the clean victim ({} backend)…", cfg.backend);
        match msopds_xp::write_victim_snapshot(&cfg, path) {
            Ok(snap) => eprintln!(
                "[snapshot] {} users × {} items (seed {}) saved to {} in {:.1?}",
                snap.header.n_users,
                snap.header.n_items,
                snap.header.seed,
                path.display(),
                started.elapsed()
            ),
            Err(e) => {
                eprintln!("repro: snapshot failed: {e}");
                std::process::exit(1);
            }
        }
    }
    // Honors --metrics-out, falls back to an MSOPDS_METRICS path, and prints
    // the tree summary to stderr when recording is on without a path.
    runtime.export_metrics();
    if let Err(e) = outcome {
        eprintln!("repro: {e}");
        std::process::exit(1);
    }
    if failed_cells > 0 {
        eprintln!("repro: {failed_cells} cells failed permanently (see journal / log above)");
        std::process::exit(3);
    }
}
