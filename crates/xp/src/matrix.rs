//! The cross-table **attack × defense matrix** (`repro matrix`): every
//! attack in the zoo against every detector pipeline, reported as an
//! HR@10-lift grid.
//!
//! Each grid cell plays the full multiplayer game — attacker commits, the
//! moderator's [`ShadowBanPolicy`] scrubs, the victim retrains — and records
//! the target item's HitRate@10 over the padded ranking pool. Lift is
//! measured against the clean baseline (attack `None` under defense `off`),
//! which the cell builder injects automatically when a subset request leaves
//! it out, so lifts are always well-defined.
//!
//! Cells run through the same journaled, resumable [`crate::runner`] as the
//! paper experiments: a killed `repro matrix --journal j.jsonl` resumed with
//! `--resume` re-emits a byte-identical grid.

use msopds_attacks::Baseline;
use msopds_core::ActionToggles;
use msopds_gameplay::{AttackMethod, ShadowBanPolicy};
use serde::{Deserialize, Serialize};

use crate::config::XpConfig;
use crate::experiments::Variant;
use crate::runner::{Cell, Measurement};

/// The attack axis: clean reference, the heuristic and optimization
/// baselines, the two zoo attacks (Influence, DLAttack), and MSOPDS.
pub fn matrix_attacks() -> Vec<Variant> {
    vec![
        Variant::new("None", AttackMethod::Baseline(Baseline::None)),
        Variant::new("Random", AttackMethod::Baseline(Baseline::Random)),
        Variant::new("Popular", AttackMethod::Baseline(Baseline::Popular)),
        Variant::new("S-attack", AttackMethod::Baseline(Baseline::SAttack)),
        Variant::new("Influence", AttackMethod::Baseline(Baseline::Influence)),
        Variant::new("DLAttack", AttackMethod::Baseline(Baseline::DlAttack)),
        Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::all())),
    ]
}

/// Resolves one attack display name (as printed by [`matrix_attacks`] or any
/// [`Baseline::name`]) to its method.
pub fn attack_by_name(name: &str) -> Option<Variant> {
    if name == "MSOPDS" {
        return Some(Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::all())));
    }
    Baseline::all()
        .into_iter()
        .find(|b| b.name() == name)
        .map(|b| Variant::new(b.name(), AttackMethod::Baseline(b)))
}

/// The defense axis: every stock pipeline spec, `"off"` first.
pub fn matrix_defenses() -> Vec<String> {
    ShadowBanPolicy::matrix_specs().iter().map(|s| s.to_string()).collect()
}

/// The clean-reference corner every grid is normalized against.
pub const BASELINE_ATTACK: &str = "None";
/// The undefended defense spec.
pub const BASELINE_DEFENSE: &str = "off";

/// Builds the matrix cells: `attacks × defenses × cfg.seeds` on the first
/// configured dataset, plus the clean baseline corner if the requested subset
/// excludes it. Every defense spec is validated up front so a typo fails the
/// run before any game is played.
pub fn matrix_cells(
    cfg: &XpConfig,
    attacks: &[Variant],
    defenses: &[String],
) -> Result<Vec<Cell>, String> {
    for spec in defenses {
        ShadowBanPolicy::from_spec(spec).map_err(|e| format!("defense {spec:?}: {e}"))?;
    }
    let dataset = *cfg.datasets.first().ok_or("no dataset configured")?;
    let mut pairs: Vec<(Variant, String)> = Vec::new();
    for attack in attacks {
        for defense in defenses {
            pairs.push((attack.clone(), defense.clone()));
        }
    }
    let has_baseline =
        pairs.iter().any(|(a, d)| a.label == BASELINE_ATTACK && d == BASELINE_DEFENSE);
    if !has_baseline {
        let clean = attack_by_name(BASELINE_ATTACK).expect("None is a baseline");
        pairs.push((clean, BASELINE_DEFENSE.to_string()));
    }
    let mut cells = Vec::new();
    for (attack, defense) in pairs {
        for &seed in &cfg.seeds {
            let game = cfg.game(seed);
            cells.push(Cell {
                dataset,
                method: attack.method,
                knob: game.attacker_b as f64,
                game,
                label: attack.label.to_string(),
                defense: Some(defense.clone()),
            });
        }
    }
    Ok(cells)
}

/// One grid cell of the rendered matrix (seed-averaged).
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct GridCell {
    /// Attack display name.
    pub attack: String,
    /// Defense pipeline spec.
    pub defense: String,
    /// Seed-averaged HitRate@10 of the target item.
    pub hr10: f64,
    /// `hr10 − baseline_hr10` (clean world, no defense).
    pub hr10_lift: f64,
    /// Seed-averaged predicted rating r̄ of the target item.
    pub rbar: f64,
}

/// The emitted `matrix.json` document.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MatrixGrid {
    /// Dataset the grid was measured on.
    pub dataset: String,
    /// HR@10 of the clean baseline corner (attack `None`, defense `off`).
    pub baseline_hr10: f64,
    /// Requested attack order (row order of `cells`).
    pub attacks: Vec<String>,
    /// Requested defense order (column order of `cells`).
    pub defenses: Vec<String>,
    /// Row-major `attacks × defenses` grid.
    pub cells: Vec<GridCell>,
}

/// Folds seed-averaged measurements into the row-major grid. Returns an error
/// naming the first missing (attack, defense) pair — a permanently failed
/// cell surfaces here instead of producing a silently sparse grid.
pub fn matrix_grid(
    averaged: &[Measurement],
    attacks: &[Variant],
    defenses: &[String],
) -> Result<MatrixGrid, String> {
    let find = |attack: &str, defense: &str| -> Option<&Measurement> {
        averaged.iter().find(|m| m.method == attack && m.defense == defense)
    };
    let baseline = find(BASELINE_ATTACK, BASELINE_DEFENSE)
        .ok_or_else(|| format!("missing baseline cell {BASELINE_ATTACK}/{BASELINE_DEFENSE}"))?;
    let baseline_hr10 = baseline.hr10;
    let dataset = baseline.dataset.clone();
    let mut cells = Vec::with_capacity(attacks.len() * defenses.len());
    for attack in attacks {
        for defense in defenses {
            let m = find(attack.label, defense)
                .ok_or_else(|| format!("missing matrix cell {}/{}", attack.label, defense))?;
            cells.push(GridCell {
                attack: attack.label.to_string(),
                defense: defense.clone(),
                hr10: m.hr10,
                hr10_lift: m.hr10 - baseline_hr10,
                rbar: m.rbar,
            });
        }
    }
    Ok(MatrixGrid {
        dataset,
        baseline_hr10,
        attacks: attacks.iter().map(|a| a.label.to_string()).collect(),
        defenses: defenses.to_vec(),
        cells,
    })
}

/// Renders the grid as an HR@10-lift table, one attack per row.
pub fn render_grid(grid: &MatrixGrid) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "== Attack × defense matrix: HR@10 lift over clean ({}, baseline {:.4}) ==",
        grid.dataset, grid.baseline_hr10
    );
    let _ = write!(out, "{:<12}", "attack");
    for d in &grid.defenses {
        let _ = write!(out, " | {d:>12}");
    }
    let _ = writeln!(out);
    for (ai, a) in grid.attacks.iter().enumerate() {
        let _ = write!(out, "{a:<12}");
        for di in 0..grid.defenses.len() {
            let cell = &grid.cells[ai * grid.defenses.len() + di];
            let _ = write!(out, " | {:>+12.4}", cell.hr10_lift);
        }
        let _ = writeln!(out);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> XpConfig {
        XpConfig::quick()
    }

    #[test]
    fn attack_axis_covers_the_zoo() {
        let names: Vec<&str> = matrix_attacks().iter().map(|v| v.label).collect();
        assert!(names.len() >= 6);
        for required in ["None", "Influence", "DLAttack", "MSOPDS"] {
            assert!(names.contains(&required), "matrix must include {required}");
        }
    }

    #[test]
    fn defense_axis_covers_off_and_detectors() {
        let specs = matrix_defenses();
        assert!(specs.len() >= 4);
        assert_eq!(specs[0], "off");
        for spec in &specs {
            ShadowBanPolicy::from_spec(spec).unwrap();
        }
    }

    #[test]
    fn full_grid_cell_count() {
        let cfg = quick();
        let cells = matrix_cells(&cfg, &matrix_attacks(), &matrix_defenses()).unwrap();
        assert_eq!(cells.len(), 7 * 5 * cfg.seeds.len());
        assert!(cells.iter().all(|c| c.defense.is_some()));
    }

    #[test]
    fn subset_without_baseline_gets_one_injected() {
        let cfg = quick();
        let attacks: Vec<Variant> =
            ["Random", "Influence"].iter().map(|n| attack_by_name(n).unwrap()).collect();
        let defenses = vec!["off".to_string(), "degree".to_string()];
        let cells = matrix_cells(&cfg, &attacks, &defenses).unwrap();
        // 2×2 product + the injected None/off corner, × seeds.
        assert_eq!(cells.len(), (2 * 2 + 1) * cfg.seeds.len());
        let baselines = cells
            .iter()
            .filter(|c| c.label == "None" && c.defense.as_deref() == Some("off"))
            .count();
        assert_eq!(baselines, cfg.seeds.len());
    }

    #[test]
    fn bad_defense_spec_fails_before_running() {
        let cfg = quick();
        let err = matrix_cells(&cfg, &matrix_attacks(), &["bogus".to_string()]).unwrap_err();
        assert!(err.contains("bogus"));
    }

    #[test]
    fn unknown_attack_name_is_none() {
        assert!(attack_by_name("Random").is_some());
        assert!(attack_by_name("DLAttack").is_some());
        assert!(attack_by_name("nope").is_none());
    }

    #[test]
    fn grid_folds_and_renders() {
        let m = |attack: &str, defense: &str, hr10: f64| Measurement {
            dataset: "Ciao".into(),
            method: attack.into(),
            knob: 5.0,
            defense: defense.into(),
            rbar: 3.0,
            hr3: hr10 / 2.0,
            hr10,
            seed: 0,
        };
        let attacks: Vec<Variant> =
            ["None", "Random"].iter().map(|n| attack_by_name(n).unwrap()).collect();
        let defenses = vec!["off".to_string(), "degree".to_string()];
        let rows = vec![
            m("None", "off", 0.10),
            m("None", "degree", 0.10),
            m("Random", "off", 0.45),
            m("Random", "degree", 0.20),
        ];
        let grid = matrix_grid(&rows, &attacks, &defenses).unwrap();
        assert_eq!(grid.cells.len(), 4);
        assert!((grid.baseline_hr10 - 0.10).abs() < 1e-12);
        let random_off = &grid.cells[2];
        assert_eq!(random_off.attack, "Random");
        assert!((random_off.hr10_lift - 0.35).abs() < 1e-12);
        let rendered = render_grid(&grid);
        assert!(rendered.contains("Random"));
        assert!(rendered.contains("degree"));

        // A missing pair is a hard error, not a sparse grid.
        let err = matrix_grid(&rows[..3], &attacks, &defenses).unwrap_err();
        assert!(err.contains("Random"), "{err}");
    }
}
