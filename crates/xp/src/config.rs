//! Experiment configuration shared by every table/figure runner, plus
//! [`RuntimeConfig::parse`] — the single place where the CLI flags and
//! process-wide variables that control *how* experiments run (threads,
//! backend, telemetry, fault plans, journaling) are parsed.

use std::path::PathBuf;

use msopds_autograd::{pool, HvpMode};
use msopds_core::{MsoConfig, PlannerConfig};
use msopds_faultline::FaultPlan;
use msopds_gameplay::GameConfig;
use msopds_recdata::{DatasetSpec, DemographicsSpec};
use msopds_recsys::pds::PdsConfig;
use msopds_recsys::{Backend, HetRecConfig};
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// The three evaluation datasets of §VI-A.1 (synthetic equivalents).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Ciao [79].
    Ciao,
    /// Epinions [80].
    Epinions,
    /// LibraryThing [81].
    LibraryThing,
}

impl DatasetKind {
    /// All datasets in Table III order.
    pub fn all() -> [DatasetKind; 3] {
        [DatasetKind::Ciao, DatasetKind::Epinions, DatasetKind::LibraryThing]
    }

    /// Display name.
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Ciao => "Ciao",
            DatasetKind::Epinions => "Epinions",
            DatasetKind::LibraryThing => "LibraryThing",
        }
    }

    /// The generator spec at full published statistics.
    pub fn spec(&self) -> DatasetSpec {
        match self {
            DatasetKind::Ciao => DatasetSpec::ciao(),
            DatasetKind::Epinions => DatasetSpec::epinions(),
            DatasetKind::LibraryThing => DatasetSpec::library_thing(),
        }
    }
}

/// Harness-wide experiment parameters.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct XpConfig {
    /// Dataset scale divisor (DESIGN.md §2; default 16).
    pub scale: f64,
    /// Seeds averaged per cell.
    pub seeds: Vec<u64>,
    /// Attacker budgets swept by Table III / Fig. 8 / Fig. 9.
    pub budgets: Vec<usize>,
    /// Datasets to evaluate.
    pub datasets: Vec<DatasetKind>,
    /// Opponent counts swept by Fig. 6.
    pub opponent_counts: Vec<usize>,
    /// Opponent budgets swept by Fig. 7.
    pub opponent_budgets: Vec<usize>,
    /// Total worker budget shared between cell-level parallelism and the
    /// tensor-kernel pool (see `run_cells`). Defaults to the machine's
    /// parallelism.
    pub threads: usize,
    /// Graph-operation backend every model in the sweep runs on. Defaults to
    /// [`Backend::default`] (sparse).
    pub backend: Backend,
}

impl Default for XpConfig {
    fn default() -> Self {
        Self {
            scale: 16.0,
            seeds: vec![1, 2],
            budgets: vec![2, 3, 4, 5],
            datasets: DatasetKind::all().to_vec(),
            opponent_counts: vec![1, 2, 3],
            opponent_budgets: vec![1, 2, 3, 4],
            threads: pool::available_parallelism(),
            backend: Backend::default(),
        }
    }
}

impl XpConfig {
    /// A fast smoke configuration for CI and the quickstart example.
    pub fn quick() -> Self {
        Self {
            scale: 24.0,
            seeds: vec![1],
            budgets: vec![2, 5],
            datasets: vec![DatasetKind::Ciao],
            opponent_counts: vec![1, 2],
            opponent_budgets: vec![1, 3],
            ..Self::default()
        }
    }

    /// Demographic sampling spec at this scale.
    pub fn demographics(&self) -> DemographicsSpec {
        DemographicsSpec::default().scaled(self.scale)
    }

    /// The per-game configuration template at this scale. The configured
    /// [`Backend`] is threaded into every model config, so the whole game —
    /// victim retraining and both players' surrogates — runs on it.
    pub fn game(&self, seed: u64) -> GameConfig {
        let planner = PlannerConfig {
            mso: MsoConfig {
                iters: 12,
                cg_iters: 5,
                hvp_mode: HvpMode::Exact,
                ..Default::default()
            },
            pds: PdsConfig { backend: self.backend, ..Default::default() },
        };
        GameConfig {
            victim: HetRecConfig {
                epochs: 50,
                dim: 12,
                attention: true,
                lambda: 1e-2,
                backend: self.backend,
                ..Default::default()
            },
            planner,
            opponent_planner: PlannerConfig {
                mso: MsoConfig { iters: 6, cg_iters: 3, ..Default::default() },
                pds: PdsConfig { inner_steps: 4, backend: self.backend, ..Default::default() },
            },
            attacker_b: 5,
            n_opponents: 1,
            opponent_b: 2,
            scale: self.scale,
            seed,
            kernel_threads: 0,
        }
    }
}

/// Resolved runtime parameters of a harness invocation: everything that
/// controls *how* a sweep executes, as opposed to *what* it measures
/// ([`XpConfig`]).
///
/// [`RuntimeConfig::parse`] is the only env/CLI parse point of `repro` and
/// `serve`: it reads the flags, the `MSOPDS_METRICS` path and
/// `MSOPDS_FAULT_PLAN`, and returns every malformed input as a usage error.
/// [`Default`] reads nothing.
#[derive(Clone, Debug, PartialEq)]
pub struct RuntimeConfig {
    /// Total worker budget (cells × kernel lanes); see [`XpConfig::threads`].
    pub threads: usize,
    /// Graph-operation backend for every model in the run.
    pub backend: Backend,
    /// Write collected telemetry as JSON here on completion; `Some` also
    /// enables recording.
    pub metrics_out: Option<PathBuf>,
    /// The `MSOPDS_FAULT_PLAN` plan [`install`](Self::install) arms (builds
    /// with the `fault-injection` feature; a no-op otherwise).
    pub fault_plan: Option<FaultPlan>,
    /// Append each finished cell to this JSONL journal.
    pub journal: Option<PathBuf>,
    /// Replay journaled successes instead of re-running them.
    pub resume: bool,
    /// Extra attempts granted to a panicking cell.
    pub retries: usize,
    /// Train the clean victim and persist its model snapshot here (the
    /// `repro --snapshot-out` / `repro snapshot` read-path handoff).
    pub snapshot_out: Option<PathBuf>,
    /// Async-serving latency budget in microseconds (`--deadline-us`). The
    /// batcher never holds a query back while its dispatcher is idle; a
    /// batch whose oldest query waited at least this long behind a running
    /// batch counts as a deadline flush. Only the `serve` binary's `load`
    /// and `listen` modes consume this.
    pub deadline_us: u64,
    /// Async-serving max coalesced batch (`--max-batch`): the largest batch
    /// one dispatch takes.
    pub max_batch: usize,
    /// Async-serving admission cap (`--queue-cap`): offers beyond this many
    /// pending queries are shed with a typed `Overloaded` rejection instead
    /// of queueing into unbounded latency.
    pub queue_cap: usize,
    /// Per-connection in-flight window of the socket front end
    /// (`--conn-window`): the server stops reading a connection with this
    /// many unanswered queries, letting TCP push back on the client instead
    /// of buffering unboundedly.
    pub conn_window: usize,
    /// Upper bound on the socket front end's graceful-drain wait in
    /// milliseconds (`--drain-ms`).
    pub drain_ms: u64,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            threads: pool::available_parallelism(),
            backend: Backend::default(),
            metrics_out: None,
            fault_plan: None,
            journal: None,
            resume: false,
            retries: crate::runner::DEFAULT_RETRIES,
            snapshot_out: None,
            deadline_us: 200,
            max_batch: 1024,
            queue_cap: 8192,
            conn_window: 64,
            drain_ms: 1000,
        }
    }
}

/// Parses the value of a counting flag.
fn int<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} takes an integer"))
}

impl RuntimeConfig {
    /// Consumes the runtime flags from `args` and returns the validated
    /// configuration with the remaining (experiment- or mode-specific)
    /// arguments in order.
    ///
    /// Recognized: `--threads N`, `--backend dense|sparse`,
    /// `--metrics-out FILE`, `--journal FILE`, `--resume`, `--retries N`,
    /// `--snapshot-out FILE`, `--deadline-us N`, `--max-batch N`,
    /// `--queue-cap N`, `--conn-window N`, `--drain-ms N`. Without
    /// `--metrics-out`, an `MSOPDS_METRICS` value that names a file is the
    /// export path. A set `MSOPDS_FAULT_PLAN` is parsed into
    /// [`fault_plan`](Self::fault_plan). Errors name the offending flag or
    /// variable, for `exit(2)`-style usage reporting.
    pub fn parse(args: &[String]) -> Result<(RuntimeConfig, Vec<String>), String> {
        let fault_plan = match std::env::var("MSOPDS_FAULT_PLAN") {
            Ok(plan) if !plan.trim().is_empty() => Some(
                FaultPlan::parse(&plan).map_err(|e| format!("malformed MSOPDS_FAULT_PLAN: {e}"))?,
            ),
            _ => None,
        };
        let mut rt = RuntimeConfig {
            metrics_out: telemetry::env_metrics_path(),
            fault_plan,
            ..RuntimeConfig::default()
        };
        let mut rest = Vec::new();
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let flag = flag.as_str();
            let mut value =
                || args.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
            match flag {
                "--threads" => rt.threads = int(flag, value()?)?,
                "--backend" => {
                    rt.backend = value()?.parse().map_err(|e| format!("--backend: {e}"))?;
                }
                "--metrics-out" => rt.metrics_out = Some(value()?.into()),
                "--journal" => rt.journal = Some(value()?.into()),
                "--resume" => rt.resume = true,
                "--snapshot-out" => rt.snapshot_out = Some(value()?.into()),
                "--retries" => rt.retries = int(flag, value()?)?,
                "--deadline-us" => rt.deadline_us = int(flag, value()?)?,
                "--max-batch" => rt.max_batch = int(flag, value()?)?,
                "--queue-cap" => rt.queue_cap = int(flag, value()?)?,
                "--conn-window" => rt.conn_window = int(flag, value()?)?,
                "--drain-ms" => rt.drain_ms = int(flag, value()?)?,
                other => rest.push(other.to_string()),
            }
        }
        if rt.threads == 0 {
            return Err("--threads must be positive".to_string());
        }
        if rt.resume && rt.journal.is_none() {
            return Err("--resume requires --journal FILE".to_string());
        }
        if rt.max_batch == 0 {
            return Err("--max-batch must be positive".to_string());
        }
        if rt.queue_cap == 0 {
            return Err("--queue-cap must be positive".to_string());
        }
        if rt.conn_window == 0 {
            return Err("--conn-window must be positive".to_string());
        }
        Ok((rt, rest))
    }

    /// Applies the process-global side effects this configuration implies:
    /// arms the fault plan and switches telemetry recording on when a metrics
    /// path is set. Call once, before running cells.
    pub fn install(&self) {
        if let Some(plan) = &self.fault_plan {
            msopds_faultline::set_plan(Some(plan.clone()));
        }
        if self.metrics_out.is_some() {
            telemetry::set_enabled(true);
        }
    }

    /// Exports collected telemetry to [`RuntimeConfig::metrics_out`] (or the
    /// recorder's fallback behavior when unset). Call once, after the run.
    pub fn export_metrics(&self) {
        telemetry::export(self.metrics_out.as_deref());
    }

    /// Overlays the runtime knobs that [`XpConfig`] carries into each cell.
    pub fn apply_to(&self, cfg: &mut XpConfig) {
        cfg.threads = self.threads;
        cfg.backend = self.backend;
    }

    /// The per-experiment [`crate::runner::RunOptions`] this configuration
    /// prescribes. `resume_now` lets an `all` sweep pass journal-append mode
    /// for every experiment after the first.
    pub fn run_options(&self, experiment: &str, resume_now: bool) -> crate::runner::RunOptions {
        crate::runner::RunOptions {
            experiment: experiment.to_string(),
            journal: self.journal.clone(),
            resume: resume_now,
            retries: self.retries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_kinds_resolve() {
        for k in DatasetKind::all() {
            let spec = k.spec();
            assert!(spec.n_users > 1000, "{} spec too small", k.name());
        }
    }

    #[test]
    fn quick_is_smaller_than_default() {
        let q = XpConfig::quick();
        let d = XpConfig::default();
        assert!(q.scale > d.scale);
        assert!(q.seeds.len() <= d.seeds.len());
        assert!(q.datasets.len() < d.datasets.len());
    }

    #[test]
    fn game_config_derives_from_scale() {
        let cfg = XpConfig::default();
        let g = cfg.game(7);
        assert_eq!(g.scale, cfg.scale);
        assert_eq!(g.seed, 7);
        assert!(g.planner.mso.eta_p < g.planner.mso.eta_q);
    }

    #[test]
    fn game_config_threads_backend_everywhere() {
        let cfg = XpConfig { backend: Backend::Dense, ..XpConfig::default() };
        let g = cfg.game(1);
        assert_eq!(g.victim.backend, Backend::Dense);
        assert_eq!(g.planner.pds.backend, Backend::Dense);
        assert_eq!(g.opponent_planner.pds.backend, Backend::Dense);
    }

    #[test]
    fn defaults_are_sparse_and_read_no_environment() {
        assert_eq!(XpConfig::default().backend, Backend::Sparse);
        let rt = RuntimeConfig::default();
        assert_eq!(rt.backend, Backend::Sparse);
        assert!(rt.threads > 0);
        assert_eq!((rt.metrics_out, rt.fault_plan), (None, None));
        assert_eq!((rt.deadline_us, rt.max_batch, rt.queue_cap), (200, 1024, 8192));
        assert_eq!((rt.conn_window, rt.drain_ms), (64, 1000));
    }

    fn cli(args: &[&str]) -> Result<(RuntimeConfig, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        RuntimeConfig::parse(&args)
    }

    #[test]
    fn runtime_cli_parses_and_leaves_rest() {
        let (rt, rest) = cli(&[
            "table3",
            "--threads",
            "3",
            "--backend",
            "dense",
            "--quick",
            "--retries",
            "2",
            "--journal",
            "j.jsonl",
            "--resume",
            "--metrics-out",
            "m.json",
            "--snapshot-out",
            "victim.snap",
            "--deadline-us",
            "500",
            "--max-batch",
            "64",
            "--queue-cap",
            "2048",
            "--conn-window",
            "8",
            "--drain-ms",
            "250",
        ])
        .unwrap();
        let want = RuntimeConfig {
            threads: 3,
            backend: Backend::Dense,
            metrics_out: Some("m.json".into()),
            journal: Some("j.jsonl".into()),
            resume: true,
            retries: 2,
            snapshot_out: Some("victim.snap".into()),
            deadline_us: 500,
            max_batch: 64,
            queue_cap: 2048,
            conn_window: 8,
            drain_ms: 250,
            ..RuntimeConfig::default()
        };
        assert_eq!(rt, RuntimeConfig { fault_plan: rt.fault_plan.clone(), ..want });
        assert_eq!(rest, vec!["table3".to_string(), "--quick".to_string()]);
    }

    #[test]
    fn runtime_cli_rejects_bad_input_for_every_flag() {
        for (args, needle) in [
            (&["--threads", "x"][..], "--threads takes an integer"),
            (&["--threads"], "--threads requires a value"),
            (&["--threads", "0"], "--threads must be positive"),
            (&["--backend", "dens"], "--backend"),
            (&["--backend"], "--backend requires a value"),
            (&["--metrics-out"], "--metrics-out requires a value"),
            (&["--journal"], "--journal requires a value"),
            (&["--resume"], "--resume requires --journal"),
            (&["--retries", "-1"], "--retries takes an integer"),
            (&["--snapshot-out"], "--snapshot-out requires a value"),
            (&["--deadline-us", "soon"], "--deadline-us takes an integer"),
            (&["--max-batch", "0"], "--max-batch must be positive"),
            (&["--queue-cap", "abc"], "--queue-cap takes an integer"),
            (&["--queue-cap", "0"], "--queue-cap must be positive"),
            (&["--queue-cap"], "--queue-cap requires a value"),
            (&["--conn-window", "0"], "--conn-window must be positive"),
            (&["--conn-window", "x"], "--conn-window takes an integer"),
            (&["--drain-ms", "soon"], "--drain-ms takes an integer"),
            (&["--drain-ms"], "--drain-ms requires a value"),
        ] {
            let err = cli(args).unwrap_err();
            assert!(err.contains(needle), "{args:?}: {err}");
        }
        // The retired row-sharded backend must fail loudly, not fall back.
        let err = cli(&["--backend", "sharded"]).unwrap_err();
        assert!(err.contains("--backend") && err.contains("dense|sparse"), "{err}");
    }

    #[test]
    fn runtime_applies_to_xp_config_and_run_options() {
        let rt = RuntimeConfig { threads: 2, backend: Backend::Dense, ..RuntimeConfig::default() };
        let mut cfg = XpConfig::quick();
        rt.apply_to(&mut cfg);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.backend, Backend::Dense);
        let opts = rt.run_options("fig6", false);
        assert_eq!(opts.experiment, "fig6");
        assert_eq!(opts.retries, rt.retries);
        assert!(!opts.resume);
    }
}
