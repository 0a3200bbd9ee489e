//! The metric catalog and the result a run prints.
//!
//! Every workload prints every end-to-end metric (untraced runs) or every
//! per-layer metric (traced runs), so the catalog is the single list of
//! names and units; `BENCHMARK.json` must agree with it, and the self-test
//! checks that it does. A per-layer metric of a layer the workload never
//! calls reads 0.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`. One "op" is a game (`plan-mca`), a
/// cell of two games (`zoo-cell`) or one top-K query (`serve-*`).
pub const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"), ("op_p50_ms", "ms")];

/// Per-layer metrics: `(name, unit)`. Layer names are crate names.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.plan_msopds_s", "s"),
    ("core.plan_bopds_s", "s"),
    ("core.build_ca_capacity_ms", "ms"),
    ("core.mso.correction_s", "s"),
    ("core.mso.cg_s", "s"),
    ("core.mso.iterations", "count"),
    ("core.mso.follower_exclusions", "count"),
    ("autograd.tape_ops", "count"),
    ("autograd.hvp_products", "count"),
    ("autograd.cg_iterations", "count"),
    ("autograd.cg_solves", "count"),
    ("autograd.buffer_pool_hit_ratio", "ratio"),
    ("autograd.buffer_pool_lookups", "count"),
    ("recsys.hetrec_fit_s", "s"),
    ("recsys.pds_unroll_steps", "count"),
    ("recsys.snapshot_write_s", "s"),
    ("recdata.world_build_s", "s"),
    ("recdata.apply_poison_ms", "ms"),
    ("attacks.influence_plan_s", "s"),
    ("attacks.dlattack_plan_s", "s"),
    ("gameplay.detect_ms", "ms"),
    ("gameplay.banned_accounts", "count"),
    ("serve.mmap_open_ms", "ms"),
    ("serve.top_k_batch_us_per_user.b1", "us"),
    ("serve.top_k_batch_us_per_user.b64", "us"),
    ("serve.top_k_batch_us_per_user.b256", "us"),
    ("serve.score_batch_us_per_user", "us"),
    ("serve.batch_p50_us", "us"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve_async.batch_fill", "users/batch"),
    ("serve_async.flush_full_ratio", "ratio"),
    ("serve_async.server_p50_us", "us"),
    ("serve_async.server_p99_us", "us"),
    ("serve_async.submit_us", "us"),
    ("serve_async.swap_ms", "ms"),
    ("serve_async.rss_growth_mb", "MB"),
    ("serve-net.frame_encode_ns", "ns"),
    ("serve-net.frame_decode_ns", "ns"),
    ("serve-net.transport_p50_us", "us"),
    ("loadgen.gen_lag_us", "us"),
    ("loadgen.client_p99_us", "us"),
    ("telemetry.overhead_pct", "%"),
    ("trace.unaccounted_pct", "%"),
];

/// What one workload run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (games, cells or queries).
    pub attempted: u64,
    /// Operations that failed, were refused, or returned a wrong answer.
    pub failed: u64,
    /// Checks that are not per operation (accounting identities, layer
    /// coverage); any entry makes the run incorrect.
    pub violations: Vec<String>,
    values: BTreeMap<&'static str, (f64, usize)>,
}

impl Report {
    /// Records `name` (which must be in the catalog) measured over `samples`.
    pub fn set(&mut self, name: &'static str, value: f64, samples: usize) {
        assert!(unit_of(name).is_some(), "metric {name} is not in the catalog");
        self.values.insert(name, (value, samples));
    }

    /// Records a failed check that is not tied to one operation.
    pub fn violation(&mut self, what: impl Into<String>) {
        let what = what.into();
        eprintln!("perfbench: check failed: {what}");
        self.violations.push(what);
    }

    /// One attempted operation; `ok = false` counts it as failed.
    pub fn op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// `ok` successful and `failed` failed operations at once.
    pub fn ops(&mut self, ok: u64, failed: u64) {
        self.attempted += ok + failed;
        self.failed += failed;
    }

    /// True when no operation failed and no check was violated.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty() && self.attempted > 0
    }

    /// The human-readable lines (every recorded metric with unit and sample
    /// count) followed by the one-line JSON result, which carries the
    /// catalog selected by `traced`.
    pub fn render(&self, traced: bool) -> String {
        let mut out = String::new();
        let ratio =
            if self.attempted > 0 { self.failed as f64 / self.attempted as f64 } else { 1.0 };
        out.push_str(&format!(
            "fail_ratio = {ratio} ({} failed of {} attempted)\n",
            self.failed, self.attempted
        ));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            if let Some(&(v, n)) = self.values.get(name) {
                out.push_str(&format!("{name} = {v} {unit} (n={n})\n"));
            }
        }
        let catalog = if traced { PER_LAYER } else { END_TO_END };
        let metrics: Vec<String> = catalog
            .iter()
            .map(|(name, unit)| {
                let v = self.values.get(name).map_or(0.0, |&(v, _)| v);
                format!("\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}", json_number(v))
            })
            .collect();
        out.push_str(&format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}\n",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        ));
        out
    }
}

/// The catalog unit of `name`.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name).map(|&(_, u)| u)
}

/// JSON has no NaN or infinity; a non-finite measurement is a bug upstream,
/// reported as 0 so the line stays parseable (the run is already marked
/// incorrect by the check that produced it).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|(n, _)| *n).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn untraced_json_carries_every_end_to_end_metric() {
        let mut r = Report::default();
        r.op(true);
        r.set("setup_s", 1.5, 3);
        let text = r.render(false);
        let json = text.lines().last().unwrap();
        for (name, unit) in END_TO_END {
            assert!(json.contains(&format!("\"{name}\": {{\"value\"")), "{name} missing");
            assert!(json.contains(&format!("\"unit\": \"{unit}\"")));
        }
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0"));
    }
}
