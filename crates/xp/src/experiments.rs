//! The experiment definitions: Table III and Figures 6–9 (§VI-B – §VI-F).
//!
//! Each experiment builds a list of [`Cell`]s (one game per dataset × method
//! × knob × seed), runs them in parallel, averages over seeds, and renders a
//! report mirroring the paper's rows/series.

use msopds_attacks::Baseline;
use msopds_core::ActionToggles;
use msopds_gameplay::AttackMethod;

use crate::config::{DatasetKind, XpConfig};
use crate::runner::{average_over_seeds, run_cells, Cell, Measurement, RunError};

/// A labelled attacker variant (labels distinguish the Fig. 8/9 ablations,
/// which all report as "MSOPDS" otherwise).
#[derive(Clone, Debug)]
pub struct Variant {
    /// Report label.
    pub label: &'static str,
    /// The underlying method.
    pub method: AttackMethod,
}

impl Variant {
    /// A labelled variant.
    pub fn new(label: &'static str, method: AttackMethod) -> Self {
        Self { label, method }
    }
}

/// The Table III method column: the seven IA baselines plus MSOPDS under MCA.
pub fn table3_methods() -> Vec<Variant> {
    let mut v: Vec<Variant> = Baseline::all()
        .into_iter()
        .map(|b| Variant::new(b.name(), AttackMethod::Baseline(b)))
        .collect();
    v.push(Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::all())));
    v
}

/// The reduced method set used by the opponent sweeps (Fig. 6 / Fig. 7) on
/// the single-core reproduction budget: the clean reference, the two
/// heuristics' strongest representative, the strongest optimization baseline,
/// and MSOPDS (see DESIGN.md §5.8).
pub fn sweep_methods() -> Vec<Variant> {
    vec![
        Variant::new("None", AttackMethod::Baseline(Baseline::None)),
        Variant::new("Random", AttackMethod::Baseline(Baseline::Random)),
        Variant::new("Popular", AttackMethod::Baseline(Baseline::Popular)),
        Variant::new("RevAdv", AttackMethod::Baseline(Baseline::RevAdv)),
        Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::all())),
    ]
}

/// Fig. 8 variants (§VI-E): capacity-category ablations.
pub fn fig8_methods() -> Vec<Variant> {
    vec![
        Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::all())),
        Variant::new("ratings only", AttackMethod::Msopds(ActionToggles::ratings_only())),
        Variant::new("ratings+item", AttackMethod::Msopds(ActionToggles::ratings_and_item())),
        Variant::new("ratings+user", AttackMethod::Msopds(ActionToggles::ratings_and_social())),
    ]
}

/// Fig. 9 variants (§VI-F): real vs fake account ablations (item edges
/// excluded throughout, per the figure's protocol).
pub fn fig9_methods() -> Vec<Variant> {
    vec![
        Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::no_item_edges())),
        Variant::new("MSOPDS-real", AttackMethod::Msopds(ActionToggles::real_only())),
        Variant::new("MSOPDS-fake", AttackMethod::Msopds(ActionToggles::fake_only())),
    ]
}

fn cell(
    cfg: &XpConfig,
    dataset: DatasetKind,
    variant: &Variant,
    seed: u64,
    knob: f64,
    mutate: impl Fn(&mut msopds_gameplay::GameConfig),
) -> Cell {
    let mut game = cfg.game(seed);
    mutate(&mut game);
    Cell {
        dataset,
        method: variant.method,
        game,
        knob,
        label: variant.label.to_string(),
        defense: None,
    }
}

/// Table III: every method × budget b × dataset, single opponent (b_op = 2).
pub fn table3_cells(cfg: &XpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &dataset in &cfg.datasets {
        for variant in table3_methods() {
            for &b in &cfg.budgets {
                for &seed in &cfg.seeds {
                    cells.push(cell(cfg, dataset, &variant, seed, b as f64, |g| {
                        g.attacker_b = b;
                    }));
                }
            }
        }
    }
    cells
}

/// Fig. 6: every method × number of opponents, b = 5.
pub fn fig6_cells(cfg: &XpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &dataset in &cfg.datasets {
        for variant in sweep_methods() {
            for &n_opp in &cfg.opponent_counts {
                for &seed in &cfg.seeds {
                    cells.push(cell(cfg, dataset, &variant, seed, n_opp as f64, |g| {
                        g.n_opponents = n_opp;
                    }));
                }
            }
        }
    }
    cells
}

/// Fig. 7: every method × opponent budget b_op, single opponent, b = 5.
pub fn fig7_cells(cfg: &XpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for &dataset in &cfg.datasets {
        for variant in sweep_methods() {
            for &b_op in &cfg.opponent_budgets {
                for &seed in &cfg.seeds {
                    cells.push(cell(cfg, dataset, &variant, seed, b_op as f64, |g| {
                        g.opponent_b = b_op;
                    }));
                }
            }
        }
    }
    cells
}

/// Fig. 8: capacity-category ablations on Epinions, budget sweep.
pub fn fig8_cells(cfg: &XpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for variant in fig8_methods() {
        for &b in &cfg.budgets {
            for &seed in &cfg.seeds {
                cells.push(cell(cfg, DatasetKind::Epinions, &variant, seed, b as f64, |g| {
                    g.attacker_b = b;
                }));
            }
        }
    }
    cells
}

/// Fig. 9: real vs fake ablations on Epinions, budget sweep.
pub fn fig9_cells(cfg: &XpConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for variant in fig9_methods() {
        for &b in &cfg.budgets {
            for &seed in &cfg.seeds {
                cells.push(cell(cfg, DatasetKind::Epinions, &variant, seed, b as f64, |g| {
                    g.attacker_b = b;
                }));
            }
        }
    }
    cells
}

/// Runs an experiment's cells and returns seed-averaged measurements.
/// Permanently failed cells are dropped from the average — use
/// [`crate::runner::run_cells_with`] to observe and journal them.
pub fn run_experiment(cells: Vec<Cell>, cfg: &XpConfig) -> Result<Vec<Measurement>, RunError> {
    Ok(average_over_seeds(&run_cells(cells, cfg)?))
}

/// Renders Table III-style output: per dataset, one row per method, one
/// (r̄, HR@3) column pair per knob value.
pub fn render_table(title: &str, knob_name: &str, rows: &[Measurement]) -> String {
    use std::collections::BTreeSet;
    use std::fmt::Write as _;

    let mut out = String::new();
    let _ = writeln!(out, "== {title} ==");
    let datasets: BTreeSet<&str> = rows.iter().map(|m| m.dataset.as_str()).collect();
    let knobs: BTreeSet<i64> = rows.iter().map(|m| (m.knob * 1000.0) as i64).collect();
    // Preserve first-appearance method order.
    let mut methods: Vec<&str> = Vec::new();
    for m in rows {
        if !methods.contains(&m.method.as_str()) {
            methods.push(&m.method);
        }
    }
    for dataset in datasets {
        let _ = writeln!(out, "\n[{dataset}]");
        let _ = write!(out, "{:<14}", "method");
        for &k in &knobs {
            let _ = write!(out, " | {knob_name}={:<4} r̄    HR@3", k as f64 / 1000.0);
        }
        let _ = writeln!(out);
        for method in &methods {
            let _ = write!(out, "{method:<14}");
            for &k in &knobs {
                match rows.iter().find(|m| {
                    m.dataset == dataset && m.method == *method && ((m.knob * 1000.0) as i64) == k
                }) {
                    Some(m) => {
                        let _ = write!(out, " |      {:>6.4}  {:>6.4}", m.rbar, m.hr3);
                    }
                    None => {
                        let _ = write!(out, " |      {:>6}  {:>6}", "-", "-");
                    }
                }
            }
            let _ = writeln!(out);
        }
    }
    out
}

/// Serializes measurements to pretty JSON.
pub fn to_json(rows: &[Measurement]) -> String {
    serde_json::to_string_pretty(rows).expect("measurements serialize")
}

/// Extension experiment (§VI-F's motivating claim, made executable): the same
/// attacks with and without a moderator that detects and shadow-bans
/// suspicious accounts before the victim trains. Expectation: the fake-heavy
/// capacities lose most of their effect, the real-user capacity survives —
/// the reason the paper argues for hiring real users.
pub fn defense_cells(cfg: &XpConfig) -> Vec<Cell> {
    let variants = vec![
        Variant::new("Random", AttackMethod::Baseline(Baseline::Random)),
        Variant::new("MSOPDS-fake", AttackMethod::Msopds(ActionToggles::fake_only())),
        Variant::new("MSOPDS-real", AttackMethod::Msopds(ActionToggles::real_only())),
        Variant::new("MSOPDS", AttackMethod::Msopds(ActionToggles::no_item_edges())),
    ];
    let mut cells = Vec::new();
    for variant in variants {
        // knob 0 = undefended, knob 1 = moderated.
        for knob in [0.0f64, 1.0] {
            for &seed in &cfg.seeds {
                let mut c = cell(cfg, DatasetKind::Epinions, &variant, seed, knob, |g| {
                    g.attacker_b = 5;
                });
                c.defense = (knob > 0.5).then(|| "moderator".to_string());
                cells.push(c);
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table3_cell_count() {
        let cfg = XpConfig::quick();
        let cells = table3_cells(&cfg);
        // datasets × methods (9 baselines + MSOPDS) × budgets × seeds
        assert_eq!(cells.len(), 10 * 2);
    }

    #[test]
    fn fig_cell_counts() {
        let cfg = XpConfig::quick();
        assert_eq!(fig6_cells(&cfg).len(), 5 * 2);
        assert_eq!(fig7_cells(&cfg).len(), 5 * 2);
        assert_eq!(fig8_cells(&cfg).len(), 4 * 2);
        assert_eq!(fig9_cells(&cfg).len(), 3 * 2);
    }

    #[test]
    fn defense_cells_pair_defended_and_undefended() {
        let cfg = XpConfig::quick();
        let cells = defense_cells(&cfg);
        assert_eq!(cells.len(), 4 * 2 * cfg.seeds.len());
        let defended = cells.iter().filter(|c| c.defense.is_some()).count();
        assert_eq!(defended, cells.len() / 2);
        // knob encodes the moderator stage for reporting.
        for c in &cells {
            assert_eq!(c.defense.as_deref(), (c.knob > 0.5).then_some("moderator"));
        }
    }

    #[test]
    fn fig9_excludes_item_edges() {
        for v in fig9_methods() {
            if let AttackMethod::Msopds(t) = v.method {
                assert!(!t.item_edges, "{} must exclude item edges", v.label);
            } else {
                panic!("fig9 methods are MSOPDS variants");
            }
        }
    }

    #[test]
    fn render_handles_missing_cells() {
        let rows = vec![Measurement {
            dataset: "D".into(),
            method: "M".into(),
            knob: 2.0,
            defense: String::new(),
            rbar: 3.25,
            hr3: 0.5,
            hr10: 0.7,
            seed: 0,
        }];
        let s = render_table("t", "b", &rows);
        assert!(s.contains("3.25"));
        assert!(s.contains("[D]"));
    }
}
