//! Experiment configuration shared by every table/figure runner, plus the
//! [`RuntimeConfig`] builder — the single place where environment variables
//! and CLI flags that control *how* experiments run (threads, backend,
//! telemetry, fault plans, journaling) are parsed.

use std::path::PathBuf;

use msopds_autograd::HvpMode;
use msopds_core::{MsoConfig, PlannerConfig};
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
    /// tensor-kernel pool (see `run_cells`). Defaults to the `MSOPDS_THREADS`
    /// environment variable when set, else the machine's parallelism.
    pub threads: usize,
    /// Graph-operation backend every model in the sweep runs on. Defaults to
    /// the `MSOPDS_BACKEND` environment variable (else dense).
    pub backend: Backend,
}

/// The default thread budget: `MSOPDS_THREADS` if set to a positive integer,
/// otherwise the number of available cores.
pub fn default_threads() -> usize {
    std::env::var("MSOPDS_THREADS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4))
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
            threads: default_threads(),
            backend: Backend::from_env(),
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
/// Built by [`RuntimeConfig::builder`], which seeds every field from the
/// environment (`MSOPDS_THREADS`, `MSOPDS_BACKEND`, `MSOPDS_METRICS`,
/// `MSOPDS_FAULT_PLAN`) and then layers CLI flags on top via
/// [`RuntimeConfigBuilder::parse_cli`]. This is the **only** env/CLI parse
/// point — `repro` and the runner consume the finished struct.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Total worker budget (cells × kernel lanes); see [`XpConfig::threads`].
    pub threads: usize,
    /// Graph-operation backend for every model in the run.
    pub backend: Backend,
    /// Write collected telemetry as JSON here on completion; `Some` also
    /// enables recording.
    pub metrics_out: Option<PathBuf>,
    /// Arm `MSOPDS_FAULT_PLAN` fault injection (builds with the
    /// `fault-injection` feature; a no-op otherwise).
    pub arm_faults: bool,
    /// Append each finished cell to this JSONL journal.
    pub journal: Option<PathBuf>,
    /// Replay journaled successes instead of re-running them.
    pub resume: bool,
    /// Extra attempts granted to a panicking cell.
    pub retries: usize,
    /// Train the clean victim and persist its model snapshot here (the
    /// `repro --snapshot-out` / `repro snapshot` read-path handoff).
    pub snapshot_out: Option<PathBuf>,
    /// Async-serving latency budget in microseconds (`--deadline-us` /
    /// `MSOPDS_DEADLINE_US`). The batcher never holds a query back while
    /// its dispatcher is idle; a batch whose oldest query waited at least
    /// this long behind a running batch counts as a deadline flush. Only
    /// the `serve` binary's `load` and `listen` modes consume this.
    pub deadline_us: u64,
    /// Async-serving max coalesced batch (`--max-batch` /
    /// `MSOPDS_MAX_BATCH`): the largest batch one dispatch takes.
    pub max_batch: usize,
    /// Async-serving admission cap (`--queue-cap` / `MSOPDS_QUEUE_CAP`):
    /// offers beyond this many pending queries are shed with a typed
    /// `Overloaded` rejection instead of queueing into unbounded latency.
    pub queue_cap: usize,
    /// Per-connection in-flight window of the socket front end
    /// (`--conn-window` / `MSOPDS_CONN_WINDOW`): the server stops reading a
    /// connection with this many unanswered queries, letting TCP push back
    /// on the client instead of buffering unboundedly.
    pub conn_window: usize,
    /// Upper bound on the socket front end's graceful-drain wait in
    /// milliseconds (`--drain-ms` / `MSOPDS_DRAIN_MS`).
    pub drain_ms: u64,
}

/// An optional positive-integer environment override, for the async-serving
/// batcher knobs (`MSOPDS_DEADLINE_US`, `MSOPDS_MAX_BATCH`,
/// `MSOPDS_QUEUE_CAP`). Unset, empty, or non-positive values fall back.
fn env_count(var: &str, default: u64) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|s| s.trim().parse::<u64>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(default)
}

impl RuntimeConfig {
    /// A builder seeded from the environment.
    pub fn builder() -> RuntimeConfigBuilder {
        RuntimeConfigBuilder(RuntimeConfig {
            threads: default_threads(),
            backend: Backend::from_env(),
            metrics_out: telemetry::env_metrics_path(),
            arm_faults: true,
            journal: None,
            resume: false,
            retries: crate::runner::DEFAULT_RETRIES,
            snapshot_out: None,
            deadline_us: env_count("MSOPDS_DEADLINE_US", 200),
            max_batch: env_count("MSOPDS_MAX_BATCH", 1024) as usize,
            queue_cap: env_count("MSOPDS_QUEUE_CAP", 8192) as usize,
            conn_window: env_count("MSOPDS_CONN_WINDOW", 64) as usize,
            drain_ms: env_count("MSOPDS_DRAIN_MS", 1000),
        })
    }

    /// Applies the process-global side effects this configuration implies:
    /// arms the fault plan and switches telemetry recording on when a metrics
    /// path is set. Call once, before running cells.
    pub fn install(&self) {
        if self.arm_faults {
            msopds_faultline::arm_from_env();
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

/// Builder for [`RuntimeConfig`]; see [`RuntimeConfig::builder`].
#[derive(Clone, Debug)]
pub struct RuntimeConfigBuilder(RuntimeConfig);

impl RuntimeConfigBuilder {
    /// Overrides the worker-thread budget (0 is rejected at [`build`](Self::build)).
    pub fn threads(mut self, n: usize) -> Self {
        self.0.threads = n;
        self
    }

    /// Overrides the graph-operation backend.
    pub fn backend(mut self, backend: Backend) -> Self {
        self.0.backend = backend;
        self
    }

    /// Enables telemetry recording and sets the export path.
    pub fn metrics_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.metrics_out = Some(path.into());
        self
    }

    /// Disables fault-plan arming (tests that manage faultline themselves).
    pub fn no_faults(mut self) -> Self {
        self.0.arm_faults = false;
        self
    }

    /// Sets the cell journal path.
    pub fn journal(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.journal = Some(path.into());
        self
    }

    /// Replays journaled successes.
    pub fn resume(mut self, on: bool) -> Self {
        self.0.resume = on;
        self
    }

    /// Sets the per-cell retry budget.
    pub fn retries(mut self, n: usize) -> Self {
        self.0.retries = n;
        self
    }

    /// Persist the clean victim's model snapshot to `path` after the run.
    pub fn snapshot_out(mut self, path: impl Into<PathBuf>) -> Self {
        self.0.snapshot_out = Some(path.into());
        self
    }

    /// Overrides the async-serving latency budget, microseconds.
    pub fn deadline_us(mut self, us: u64) -> Self {
        self.0.deadline_us = us;
        self
    }

    /// Overrides the async-serving max coalesced batch.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.0.max_batch = n;
        self
    }

    /// Overrides the async-serving admission cap.
    pub fn queue_cap(mut self, n: usize) -> Self {
        self.0.queue_cap = n;
        self
    }

    /// Overrides the socket front end's per-connection in-flight window.
    pub fn conn_window(mut self, n: usize) -> Self {
        self.0.conn_window = n;
        self
    }

    /// Overrides the socket front end's graceful-drain bound, milliseconds.
    pub fn drain_ms(mut self, ms: u64) -> Self {
        self.0.drain_ms = ms;
        self
    }

    /// Consumes the runtime flags from `args`, returning the remaining
    /// (experiment-specific) arguments in order.
    ///
    /// Recognized: `--threads N`, `--backend dense|sparse`,
    /// `--metrics-out FILE`, `--journal FILE`, `--resume`, `--retries N`,
    /// `--snapshot-out FILE`, `--deadline-us N`, `--max-batch N`,
    /// `--queue-cap N`, `--conn-window N`, `--drain-ms N`.
    /// Errors name the offending flag, for `exit(2)`-style usage reporting.
    pub fn parse_cli(mut self, args: &[String]) -> Result<(Self, Vec<String>), String> {
        let mut rest = Vec::new();
        let mut i = 0;
        let value = |i: &mut usize, flag: &str| -> Result<String, String> {
            *i += 1;
            args.get(*i).cloned().ok_or_else(|| format!("{flag} requires a value"))
        };
        while i < args.len() {
            match args[i].as_str() {
                "--threads" => {
                    self.0.threads = value(&mut i, "--threads")?
                        .parse()
                        .map_err(|_| "--threads takes an integer".to_string())?;
                }
                "--backend" => {
                    self.0.backend = value(&mut i, "--backend")?
                        .parse()
                        .map_err(|e| format!("--backend: {e}"))?;
                }
                "--metrics-out" => {
                    self.0.metrics_out = Some(PathBuf::from(value(&mut i, "--metrics-out")?));
                }
                "--journal" => {
                    self.0.journal = Some(PathBuf::from(value(&mut i, "--journal")?));
                }
                "--resume" => self.0.resume = true,
                "--snapshot-out" => {
                    self.0.snapshot_out = Some(PathBuf::from(value(&mut i, "--snapshot-out")?));
                }
                "--retries" => {
                    self.0.retries = value(&mut i, "--retries")?
                        .parse()
                        .map_err(|_| "--retries takes an integer".to_string())?;
                }
                "--deadline-us" => {
                    self.0.deadline_us = value(&mut i, "--deadline-us")?
                        .parse()
                        .map_err(|_| "--deadline-us takes an integer".to_string())?;
                }
                "--max-batch" => {
                    self.0.max_batch = value(&mut i, "--max-batch")?
                        .parse()
                        .map_err(|_| "--max-batch takes an integer".to_string())?;
                }
                "--queue-cap" => {
                    self.0.queue_cap = value(&mut i, "--queue-cap")?
                        .parse()
                        .map_err(|_| "--queue-cap takes an integer".to_string())?;
                }
                "--conn-window" => {
                    self.0.conn_window = value(&mut i, "--conn-window")?
                        .parse()
                        .map_err(|_| "--conn-window takes an integer".to_string())?;
                }
                "--drain-ms" => {
                    self.0.drain_ms = value(&mut i, "--drain-ms")?
                        .parse()
                        .map_err(|_| "--drain-ms takes an integer".to_string())?;
                }
                other => rest.push(other.to_string()),
            }
            i += 1;
        }
        Ok((self, rest))
    }

    /// Validates and produces the [`RuntimeConfig`].
    pub fn build(self) -> Result<RuntimeConfig, String> {
        if self.0.threads == 0 {
            return Err("--threads must be positive".to_string());
        }
        if self.0.resume && self.0.journal.is_none() {
            return Err("--resume requires --journal FILE".to_string());
        }
        if self.0.max_batch == 0 {
            return Err("--max-batch must be positive".to_string());
        }
        if self.0.queue_cap == 0 {
            return Err("--queue-cap must be positive".to_string());
        }
        if self.0.conn_window == 0 {
            return Err("--conn-window must be positive".to_string());
        }
        Ok(self.0)
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
        let cfg = XpConfig { backend: Backend::Sparse, ..XpConfig::default() };
        let g = cfg.game(1);
        assert_eq!(g.victim.backend, Backend::Sparse);
        assert_eq!(g.planner.pds.backend, Backend::Sparse);
        assert_eq!(g.opponent_planner.pds.backend, Backend::Sparse);
    }

    fn cli(args: &[&str]) -> Result<(RuntimeConfig, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
        let (builder, rest) = RuntimeConfig::builder().parse_cli(&args)?;
        Ok((builder.build()?, rest))
    }

    #[test]
    fn runtime_cli_parses_and_leaves_rest() {
        let (rt, rest) = cli(&[
            "table3",
            "--threads",
            "3",
            "--backend",
            "sparse",
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
        ])
        .unwrap();
        assert_eq!(rt.threads, 3);
        assert_eq!(rt.backend, Backend::Sparse);
        assert_eq!(rt.retries, 2);
        assert!(rt.resume);
        assert_eq!(rt.deadline_us, 500);
        assert_eq!(rt.max_batch, 64);
        assert_eq!(rt.queue_cap, 2048);
        assert_eq!(rt.snapshot_out.as_deref(), Some(std::path::Path::new("victim.snap")));
        assert_eq!(rt.journal.as_deref(), Some(std::path::Path::new("j.jsonl")));
        assert_eq!(rt.metrics_out.as_deref(), Some(std::path::Path::new("m.json")));
        assert_eq!(rest, vec!["table3".to_string(), "--quick".to_string()]);
    }

    #[test]
    fn runtime_cli_rejects_bad_input() {
        assert!(cli(&["--backend", "dens"]).unwrap_err().contains("--backend"));
        // The retired row-sharded backend must fail loudly, not fall back.
        let err = cli(&["--backend", "sharded"]).unwrap_err();
        assert!(err.contains("--backend") && err.contains("dense|sparse"), "{err}");
        assert!(cli(&["--threads", "x"]).unwrap_err().contains("--threads"));
        assert!(cli(&["--threads"]).unwrap_err().contains("requires a value"));
        assert!(cli(&["--threads", "0"]).unwrap_err().contains("positive"));
        assert!(cli(&["--resume"]).unwrap_err().contains("--journal"));
        assert!(cli(&["--deadline-us", "soon"]).unwrap_err().contains("--deadline-us"));
        assert!(cli(&["--max-batch", "0"]).unwrap_err().contains("--max-batch"));
        assert!(cli(&["--queue-cap", "0"]).unwrap_err().contains("--queue-cap"));
        assert!(cli(&["--queue-cap"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn runtime_batcher_knobs_default_to_issue_values() {
        let rt = RuntimeConfig::builder().build().unwrap();
        assert_eq!(rt.deadline_us, 200);
        assert_eq!(rt.max_batch, 1024);
        assert_eq!(rt.queue_cap, 8192);
        let rt =
            RuntimeConfig::builder().deadline_us(50).max_batch(8).queue_cap(32).build().unwrap();
        assert_eq!((rt.deadline_us, rt.max_batch, rt.queue_cap), (50, 8, 32));
    }

    #[test]
    fn runtime_net_knobs_parse_default_and_validate() {
        let rt = RuntimeConfig::builder().build().unwrap();
        assert_eq!(rt.conn_window, 64);
        assert_eq!(rt.drain_ms, 1000);

        let (rt, rest) = cli(&["--conn-window", "8", "--drain-ms", "250"]).unwrap();
        assert_eq!(rt.conn_window, 8);
        assert_eq!(rt.drain_ms, 250);
        assert!(rest.is_empty());

        assert!(cli(&["--conn-window", "0"]).unwrap_err().contains("--conn-window"));
        assert!(cli(&["--conn-window", "x"]).unwrap_err().contains("--conn-window"));
        assert!(cli(&["--drain-ms", "soon"]).unwrap_err().contains("--drain-ms"));
        assert!(cli(&["--drain-ms"]).unwrap_err().contains("requires a value"));
    }

    #[test]
    fn runtime_applies_to_xp_config_and_run_options() {
        let rt = RuntimeConfig::builder().threads(2).backend(Backend::Sparse).build().unwrap();
        let mut cfg = XpConfig::quick();
        rt.apply_to(&mut cfg);
        assert_eq!(cfg.threads, 2);
        assert_eq!(cfg.backend, Backend::Sparse);
        let opts = rt.run_options("fig6", false);
        assert_eq!(opts.experiment, "fig6");
        assert_eq!(opts.retries, rt.retries);
        assert!(!opts.resume);
    }
}
