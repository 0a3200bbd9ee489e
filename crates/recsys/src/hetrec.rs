//! The victim Het-RecSys: a ConsisRec-style attention GNN (§VI-A.1).
//!
//! Per-node embeddings are refined by one round of graph convolution — users
//! over the social network 𝒢ᵤ, items over the item graph 𝒢ᵢ — with
//! consistency-score attention (masked softmax of embedding similarity),
//! following ConsisRec [12]. Predictions are dot products of final embeddings
//! and training minimizes the MSE of eq. (1) with L2 regularization.

use std::sync::Arc;

use msopds_autograd::optim::Adam;
use msopds_autograd::{Tape, Tensor, Var};
use msopds_recdata::Dataset;
use msopds_telemetry as telemetry;
use serde::{Deserialize, Serialize};

/// Full-batch training epochs run across all victim fits.
static HETREC_EPOCHS: telemetry::Counter = telemetry::Counter::new("recsys.hetrec.epochs");

use crate::bias::{damped_biases, DEFAULT_DAMPING};
use crate::convolve::{attention_convolve, mean_convolve};
use crate::graphops::{Backend, GraphOps};
use crate::snapshot::{ModelKind, Snapshot, SnapshotError, SnapshotHeader};

/// Hyperparameters of the victim model.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct HetRecConfig {
    /// Embedding dimensionality.
    pub dim: usize,
    /// Training epochs (full-batch Adam).
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 regularization strength λ of eq. (1).
    pub lambda: f64,
    /// Embedding init standard deviation.
    pub init_std: f64,
    /// Use consistency attention (`true`, ConsisRec-style) or plain mean
    /// aggregation (`false`).
    pub attention: bool,
    /// Graph-operation backend for the mean-aggregation path. Attention
    /// always materializes densely (see [`GraphOps::attention_mask`]).
    pub backend: Backend,
    /// Parameter init seed.
    pub seed: u64,
}

impl Default for HetRecConfig {
    fn default() -> Self {
        Self {
            dim: 16,
            epochs: 50,
            lr: 0.05,
            lambda: 1e-2,
            init_std: 0.1,
            attention: true,
            backend: Backend::default(),
            seed: 0,
        }
    }
}

/// Per-epoch training diagnostics.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TrainReport {
    /// Training MSE after each epoch.
    pub epoch_loss: Vec<f64>,
}

/// The trained victim recommender.
#[derive(Clone, Debug)]
pub struct HetRec {
    cfg: HetRecConfig,
    user_emb: Tensor,
    item_emb: Tensor,
    w_u: Tensor,
    w_i: Tensor,
    /// Damped-mean user bias, recomputed from the data at fit time.
    b_u: Tensor,
    /// Damped-mean item bias, recomputed from the data at fit time.
    b_i: Tensor,
    /// Global-mean rating anchor μ: predictions are `μ + b_u + b_i + h_uᶠ·h_iᶠ`.
    mu: f64,
    /// Final embeddings after the last fit; `None` before training.
    finals: Option<(Tensor, Tensor)>,
}

impl HetRec {
    /// Initializes parameters for a `n_users × n_items` universe.
    pub fn new(cfg: HetRecConfig, n_users: usize, n_items: usize) -> Self {
        let mut rng = rand::SeedableRng::seed_from_u64(cfg.seed);
        let rng: &mut rand::rngs::StdRng = &mut rng;
        let d = cfg.dim;
        Self {
            cfg,
            user_emb: Tensor::randn(&[n_users, d], cfg.init_std, rng),
            item_emb: Tensor::randn(&[n_items, d], cfg.init_std, rng),
            w_u: glorot(2 * d, d, rng),
            w_i: glorot(2 * d, d, rng),
            b_u: Tensor::zeros(&[n_users]),
            b_i: Tensor::zeros(&[n_items]),
            mu: 0.0,
            finals: None,
        }
    }

    /// The configuration this model was built with.
    pub fn config(&self) -> &HetRecConfig {
        &self.cfg
    }

    /// Trains on `data` (eq. 1) and caches final embeddings for prediction.
    ///
    /// # Panics
    /// Panics if `data` dimensions disagree with the construction sizes or the
    /// dataset has no ratings.
    pub fn fit(&mut self, data: &Dataset) -> TrainReport {
        let _span = telemetry::span("hetrec_fit");
        assert_eq!(data.n_users(), self.user_emb.rows(), "user count changed since new()");
        assert_eq!(data.n_items(), self.item_emb.rows(), "item count changed since new()");
        assert!(!data.ratings.is_empty(), "cannot train on an empty rating matrix");
        self.mu = data.ratings.global_mean().expect("non-empty ratings");
        let (bu_t, bi_t) = damped_biases(data, self.mu, DEFAULT_DAMPING);
        self.b_u = bu_t;
        self.b_i = bi_t;

        let gops = GraphOps::new(self.cfg.backend);
        let (user_idx, item_idx, values) = rating_triplets(data);
        let target = Tensor::from_vec(values, &[user_idx.len()]);
        let user_idx = Arc::new(user_idx);
        let item_idx = Arc::new(item_idx);

        let mut adam = Adam::new(self.cfg.lr, 4);
        adam.weight_decay = self.cfg.lambda;
        let mut epoch_loss = Vec::with_capacity(self.cfg.epochs);

        for _ in 0..self.cfg.epochs {
            let _epoch_span = telemetry::span("epoch");
            HETREC_EPOCHS.incr();
            let tape = Tape::new();
            let (hu, hi, wu, wi) = (
                tape.leaf(self.user_emb.clone()),
                tape.leaf(self.item_emb.clone()),
                tape.leaf(self.w_u.clone()),
                tape.leaf(self.w_i.clone()),
            );
            let (bu, bi) = (tape.constant(self.b_u.clone()), tape.constant(self.b_i.clone()));
            let (uf, if_) = self.forward(&tape, &gops, data, hu, hi, wu, wi);
            let pred = uf
                .gather_rows(Arc::clone(&user_idx))
                .rowwise_dot(if_.gather_rows(Arc::clone(&item_idx)))
                .add(bu.gather_elems(Arc::clone(&user_idx)))
                .add(bi.gather_elems(Arc::clone(&item_idx)))
                .add_scalar(self.mu);
            let loss = pred.sub(tape.constant(target.clone())).square().mean();
            epoch_loss.push(loss.item());

            let grads = tape.grad(loss, &[hu, hi, wu, wi]);
            adam.tick();
            adam.step(0, &mut self.user_emb, &grads[0]);
            adam.step(1, &mut self.item_emb, &grads[1]);
            adam.step(2, &mut self.w_u, &grads[2]);
            adam.step(3, &mut self.w_i, &grads[3]);
        }

        // Cache final embeddings with the trained parameters.
        let tape = Tape::new();
        let (hu, hi, wu, wi) = (
            tape.constant(self.user_emb.clone()),
            tape.constant(self.item_emb.clone()),
            tape.constant(self.w_u.clone()),
            tape.constant(self.w_i.clone()),
        );
        let (uf, if_) = self.forward(&tape, &gops, data, hu, hi, wu, wi);
        self.finals = Some((uf.value(), if_.value()));
        TrainReport { epoch_loss }
    }

    /// One convolution round over both graphs, through the backend-agnostic
    /// `GraphOps` API. The per-graph derived structures (dense masks, CSR
    /// operands, inverse degrees) are memoized on the graph fingerprint, so
    /// calling this per epoch costs one cache hit each.
    #[allow(clippy::too_many_arguments)]
    fn forward<'t>(
        &self,
        tape: &'t Tape,
        gops: &GraphOps,
        data: &Dataset,
        hu: Var<'t>,
        hi: Var<'t>,
        wu: Var<'t>,
        wi: Var<'t>,
    ) -> (Var<'t>, Var<'t>) {
        if self.cfg.attention {
            let mask_u = gops.attention_mask(tape, &data.social);
            let mask_i = gops.attention_mask(tape, &data.item_graph);
            (attention_convolve(hu, mask_u, wu), attention_convolve(hi, mask_i, wi))
        } else {
            let au = gops.adjacency(tape, &data.social);
            let ai = gops.adjacency(tape, &data.item_graph);
            let du = gops.inv_degree(tape, &data.social);
            let di = gops.inv_degree(tape, &data.item_graph);
            (mean_convolve(hu, &au, du, wu), mean_convolve(hi, &ai, di, wi))
        }
    }

    /// Predicted rating `ℛ₍ᵤ,ᵢ₎` from the cached final embeddings.
    ///
    /// # Panics
    /// Panics if called before [`HetRec::fit`].
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        let (uf, if_) = self.finals.as_ref().expect("call fit() before predict()");
        let d = uf.cols();
        self.mu
            + self.b_u.get(user)
            + self.b_i.get(item)
            + (0..d).map(|k| uf.at(user, k) * if_.at(item, k)).sum::<f64>()
    }

    /// The global-mean rating anchor μ learned from the last fit.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The damped user/item bias vectors from the last fit.
    pub fn biases(&self) -> (&Tensor, &Tensor) {
        (&self.b_u, &self.b_i)
    }

    /// Exports the trained model as a [`Snapshot`] (DESIGN.md §12), stamping
    /// the CSR fingerprints of `data`'s graphs for invalidation checks.
    ///
    /// # Panics
    /// Panics if called before [`HetRec::fit`] — an unfitted model has no
    /// final embeddings to serve.
    pub fn snapshot(&self, data: &Dataset) -> Snapshot {
        let (uf, if_) = self.finals.as_ref().expect("call fit() before snapshot()");
        let (social_fingerprint, item_fingerprint) = Snapshot::fingerprints_of(data);
        Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::HetRec,
                backend: self.cfg.backend,
                seed: self.cfg.seed,
                social_fingerprint,
                item_fingerprint,
                n_users: self.user_emb.rows() as u64,
                n_items: self.item_emb.rows() as u64,
                mu: self.mu,
            },
            config_json: serde_json::to_string(&self.cfg).expect("HetRecConfig serializes"),
            tensors: vec![
                ("user_emb".to_string(), self.user_emb.clone()),
                ("item_emb".to_string(), self.item_emb.clone()),
                ("w_u".to_string(), self.w_u.clone()),
                ("w_i".to_string(), self.w_i.clone()),
                ("b_u".to_string(), self.b_u.clone()),
                ("b_i".to_string(), self.b_i.clone()),
                ("finals.user".to_string(), uf.clone()),
                ("finals.item".to_string(), if_.clone()),
            ],
        }
    }

    /// Rebuilds a trained model from a [`Snapshot`], bit-identical to the
    /// instance that saved it (same predictions without retraining).
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, SnapshotError> {
        if snap.header.kind != ModelKind::HetRec {
            return Err(SnapshotError::Corrupt {
                context: format!("expected a HetRec snapshot, found {:?}", snap.header.kind),
            });
        }
        let cfg: HetRecConfig = serde_json::from_str(&snap.config_json)
            .map_err(|e| SnapshotError::Corrupt { context: format!("config JSON: {e}") })?;
        let grab = |name: &str| snap.require(name).cloned();
        let model = Self {
            cfg,
            user_emb: grab("user_emb")?,
            item_emb: grab("item_emb")?,
            w_u: grab("w_u")?,
            w_i: grab("w_i")?,
            b_u: grab("b_u")?,
            b_i: grab("b_i")?,
            mu: snap.header.mu,
            finals: Some((grab("finals.user")?, grab("finals.item")?)),
        };
        let (n_users, n_items) = (snap.header.n_users as usize, snap.header.n_items as usize);
        let d = model.cfg.dim;
        let shapes = [
            ("user_emb", model.user_emb.shape(), vec![n_users, d]),
            ("item_emb", model.item_emb.shape(), vec![n_items, d]),
            ("b_u", model.b_u.shape(), vec![n_users]),
            ("b_i", model.b_i.shape(), vec![n_items]),
        ];
        for (name, found, want) in shapes {
            if found != want.as_slice() {
                return Err(SnapshotError::Corrupt {
                    context: format!(
                        "tensor {name:?} has shape {found:?}, header implies {want:?}"
                    ),
                });
            }
        }
        let (uf, if_) = model.finals.as_ref().expect("set above");
        if uf.shape() != [n_users, uf.cols()]
            || if_.shape() != [n_items, if_.cols()]
            || uf.cols() != if_.cols()
        {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "final embeddings {:?} / {:?} disagree with header {n_users}×{n_items}",
                    uf.shape(),
                    if_.shape()
                ),
            });
        }
        Ok(model)
    }

    /// Root-mean-squared error over the dataset's stored ratings.
    pub fn rmse(&self, data: &Dataset) -> f64 {
        let mut se = 0.0;
        for r in data.ratings.ratings() {
            let p = self.predict(r.user as usize, r.item as usize);
            se += (p - r.value) * (p - r.value);
        }
        (se / data.ratings.len() as f64).sqrt()
    }
}

/// Glorot-uniform-ish init (scaled normal) for projection matrices.
fn glorot<R: rand::Rng>(fan_in: usize, fan_out: usize, rng: &mut R) -> Tensor {
    let std = (2.0 / (fan_in + fan_out) as f64).sqrt();
    Tensor::randn(&[fan_in, fan_out], std, rng)
}

/// Splits the rating matrix into parallel index/value arrays.
pub(crate) fn rating_triplets(data: &Dataset) -> (Vec<usize>, Vec<usize>, Vec<f64>) {
    let n = data.ratings.len();
    let mut users = Vec::with_capacity(n);
    let mut items = Vec::with_capacity(n);
    let mut values = Vec::with_capacity(n);
    for r in data.ratings.ratings() {
        users.push(r.user as usize);
        items.push(r.item as usize);
        values.push(r.value);
    }
    (users, items, values)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::avg_predicted_rating;
    use msopds_recdata::DatasetSpec;

    fn micro_data() -> Dataset {
        DatasetSpec::micro().generate(3)
    }

    fn quick_cfg(attention: bool) -> HetRecConfig {
        HetRecConfig { epochs: 30, dim: 8, attention, ..Default::default() }
    }

    #[test]
    fn training_reduces_loss() {
        let data = micro_data();
        let mut model = HetRec::new(quick_cfg(false), data.n_users(), data.n_items());
        let report = model.fit(&data);
        let first = report.epoch_loss[0];
        let last = *report.epoch_loss.last().unwrap();
        assert!(last < 0.6 * first, "loss did not drop: {first} -> {last}");
    }

    #[test]
    fn attention_training_reduces_loss() {
        let data = micro_data();
        let mut model = HetRec::new(quick_cfg(true), data.n_users(), data.n_items());
        let report = model.fit(&data);
        assert!(report.epoch_loss.last().unwrap() < &report.epoch_loss[0]);
    }

    #[test]
    fn rmse_beats_global_mean_baseline() {
        let data = micro_data();
        let mut model = HetRec::new(quick_cfg(true), data.n_users(), data.n_items());
        model.fit(&data);
        let mean = data.ratings.global_mean().unwrap();
        let baseline = {
            let mut se = 0.0;
            for r in data.ratings.ratings() {
                se += (mean - r.value) * (mean - r.value);
            }
            (se / data.ratings.len() as f64).sqrt()
        };
        let rmse = model.rmse(&data);
        assert!(rmse < baseline, "model rmse {rmse} vs baseline {baseline}");
    }

    #[test]
    fn fit_is_seed_deterministic() {
        let data = micro_data();
        let mut m1 = HetRec::new(quick_cfg(false), data.n_users(), data.n_items());
        let mut m2 = HetRec::new(quick_cfg(false), data.n_users(), data.n_items());
        m1.fit(&data);
        m2.fit(&data);
        assert_eq!(m1.predict(0, 0), m2.predict(0, 0));
    }

    #[test]
    fn snapshot_restores_bit_identical_predictions() {
        let data = micro_data();
        let mut model = HetRec::new(quick_cfg(true), data.n_users(), data.n_items());
        model.fit(&data);
        let snap = model.snapshot(&data);
        assert!(snap.matches_dataset(&data));
        let back = HetRec::from_snapshot(&snap).unwrap();
        for u in 0..5 {
            for i in 0..5 {
                assert_eq!(
                    model.predict(u, i).to_bits(),
                    back.predict(u, i).to_bits(),
                    "prediction ({u},{i}) drifted through the snapshot"
                );
            }
        }
        // Poisoning the graphs invalidates the fingerprints.
        let actions =
            vec![msopds_recdata::PoisonAction::SocialEdge { a: 0, b: data.n_users() as u32 - 1 }];
        let poisoned = data.apply_poison(&actions);
        if poisoned.social.fingerprint() != data.social.fingerprint() {
            assert!(!snap.matches_dataset(&poisoned));
        }
    }

    #[test]
    #[should_panic(expected = "before snapshot")]
    fn snapshot_before_fit_panics() {
        let data = micro_data();
        let model = HetRec::new(quick_cfg(false), data.n_users(), data.n_items());
        let _ = model.snapshot(&data);
    }

    #[test]
    #[should_panic(expected = "before predict")]
    fn predict_before_fit_panics() {
        let model = HetRec::new(HetRecConfig::default(), 5, 5);
        let _ = model.predict(0, 0);
    }

    #[test]
    fn promoted_item_rating_rises() {
        // Poisoning the data with 5-star ratings on an item should raise its
        // retrained prediction — a sanity check of attack observability.
        let data = micro_data();
        let target = 3usize;
        let mut clean = HetRec::new(quick_cfg(false), data.n_users(), data.n_items());
        clean.fit(&data);
        let users: Vec<usize> = (0..10).collect();
        let before = avg_predicted_rating(&clean, &users, target);

        let actions: Vec<_> = (0..10u32)
            .map(|u| msopds_recdata::PoisonAction::Rating {
                user: u,
                item: target as u32,
                value: 5.0,
            })
            .collect();
        let poisoned = data.apply_poison(&actions);
        let mut dirty = HetRec::new(quick_cfg(false), poisoned.n_users(), poisoned.n_items());
        dirty.fit(&poisoned);
        let after = avg_predicted_rating(&dirty, &users, target);
        assert!(after > before, "promotion had no effect: {before} -> {after}");
    }
}
