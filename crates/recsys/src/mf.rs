//! Matrix-factorization recommender — the surrogate used by the PGA baseline
//! (Li et al. [13] attack factorization-based collaborative filtering).

use std::sync::Arc;

use msopds_autograd::optim::Adam;
use msopds_autograd::{Tape, Tensor, Var};
use msopds_recdata::Dataset;
use serde::{Deserialize, Serialize};

use crate::bias::{damped_biases, DEFAULT_DAMPING};
use crate::graphops::Backend;
use crate::hetrec::rating_triplets;
use crate::snapshot::{ModelKind, Snapshot, SnapshotError, SnapshotHeader};

/// MF hyperparameters.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MfConfig {
    /// Latent dimensionality.
    pub dim: usize,
    /// Training epochs.
    pub epochs: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// L2 regularization.
    pub lambda: f64,
    /// Init std.
    pub init_std: f64,
    /// Init seed.
    pub seed: u64,
}

impl Default for MfConfig {
    fn default() -> Self {
        Self { dim: 8, epochs: 60, lr: 0.05, lambda: 1e-4, init_std: 0.1, seed: 0 }
    }
}

/// A trained matrix-factorization model `ℛ(u,i) = p_u · q_i`.
#[derive(Clone, Debug)]
pub struct MatrixFactorization {
    cfg: MfConfig,
    p: Tensor,
    q: Tensor,
    bu: Tensor,
    bi: Tensor,
    mu: f64,
}

impl MatrixFactorization {
    /// Initializes factors for a `n_users × n_items` universe.
    pub fn new(cfg: MfConfig, n_users: usize, n_items: usize) -> Self {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(cfg.seed);
        Self {
            cfg,
            p: Tensor::randn(&[n_users, cfg.dim], cfg.init_std, &mut rng),
            q: Tensor::randn(&[n_items, cfg.dim], cfg.init_std, &mut rng),
            bu: Tensor::zeros(&[n_users]),
            bi: Tensor::zeros(&[n_items]),
            mu: 0.0,
        }
    }

    /// Trains on the dataset's ratings; returns the per-epoch MSE.
    pub fn fit(&mut self, data: &Dataset) -> Vec<f64> {
        assert!(!data.ratings.is_empty(), "cannot fit MF on empty ratings");
        self.mu = data.ratings.global_mean().expect("non-empty ratings");
        let (bu_t, bi_t) = damped_biases(data, self.mu, DEFAULT_DAMPING);
        self.bu = bu_t;
        self.bi = bi_t;
        let (ru, ri, rv) = rating_triplets(data);
        let n = ru.len();
        let (ru, ri) = (Arc::new(ru), Arc::new(ri));
        let target = Tensor::from_vec(rv, &[n]);
        let mut adam = Adam::new(self.cfg.lr, 2);
        adam.weight_decay = self.cfg.lambda;
        let mut losses = Vec::with_capacity(self.cfg.epochs);
        for _ in 0..self.cfg.epochs {
            let tape = Tape::new();
            let p = tape.leaf(self.p.clone());
            let q = tape.leaf(self.q.clone());
            let bu = tape.constant(self.bu.clone());
            let bi = tape.constant(self.bi.clone());
            let loss = Self::loss_on(&tape, p, q, bu, bi, &ru, &ri, &target, self.mu);
            losses.push(loss.item());
            let g = tape.grad(loss, &[p, q]);
            adam.tick();
            adam.step(0, &mut self.p, &g[0]);
            adam.step(1, &mut self.q, &g[1]);
        }
        losses
    }

    /// The differentiable training objective on a caller-provided tape — used
    /// by PGA to unroll MF training over candidate fake ratings.
    #[allow(clippy::too_many_arguments)]
    pub fn loss_on<'t>(
        tape: &'t Tape,
        p: Var<'t>,
        q: Var<'t>,
        bu: Var<'t>,
        bi: Var<'t>,
        users: &Arc<Vec<usize>>,
        items: &Arc<Vec<usize>>,
        target: &Tensor,
        mu: f64,
    ) -> Var<'t> {
        let pred = p
            .gather_rows(Arc::clone(users))
            .rowwise_dot(q.gather_rows(Arc::clone(items)))
            .add(bu.gather_elems(Arc::clone(users)))
            .add(bi.gather_elems(Arc::clone(items)))
            .add_scalar(mu);
        pred.sub(tape.constant(target.clone())).square().mean()
    }

    /// The global-mean anchor μ learned from the last fit.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Predicted rating.
    pub fn predict(&self, user: usize, item: usize) -> f64 {
        self.mu
            + self.bu.get(user)
            + self.bi.get(item)
            + (0..self.cfg.dim).map(|k| self.p.at(user, k) * self.q.at(item, k)).sum::<f64>()
    }

    /// Current item factors.
    pub fn item_factors(&self) -> &Tensor {
        &self.q
    }

    /// The damped user/item bias vectors from the last fit.
    pub fn biases(&self) -> (&Tensor, &Tensor) {
        (&self.bu, &self.bi)
    }

    /// The configuration.
    pub fn config(&self) -> &MfConfig {
        &self.cfg
    }

    /// Exports the trained factors as a [`Snapshot`] (DESIGN.md §12). MF has
    /// no graph backend; the tag records [`Backend::Dense`] as provenance.
    pub fn snapshot(&self, data: &Dataset) -> Snapshot {
        let (social_fingerprint, item_fingerprint) = Snapshot::fingerprints_of(data);
        Snapshot {
            header: SnapshotHeader {
                kind: ModelKind::Mf,
                backend: Backend::Dense,
                seed: self.cfg.seed,
                social_fingerprint,
                item_fingerprint,
                n_users: self.p.rows() as u64,
                n_items: self.q.rows() as u64,
                mu: self.mu,
            },
            config_json: serde_json::to_string(&self.cfg).expect("MfConfig serializes"),
            tensors: vec![
                ("p".to_string(), self.p.clone()),
                ("q".to_string(), self.q.clone()),
                ("b_u".to_string(), self.bu.clone()),
                ("b_i".to_string(), self.bi.clone()),
            ],
        }
    }

    /// Rebuilds a trained MF model from a [`Snapshot`], bit-identical to the
    /// instance that saved it.
    pub fn from_snapshot(snap: &Snapshot) -> Result<Self, SnapshotError> {
        if snap.header.kind != ModelKind::Mf {
            return Err(SnapshotError::Corrupt {
                context: format!("expected an MF snapshot, found {:?}", snap.header.kind),
            });
        }
        let cfg: MfConfig = serde_json::from_str(&snap.config_json)
            .map_err(|e| SnapshotError::Corrupt { context: format!("config JSON: {e}") })?;
        let model = Self {
            cfg,
            p: snap.require("p")?.clone(),
            q: snap.require("q")?.clone(),
            bu: snap.require("b_u")?.clone(),
            bi: snap.require("b_i")?.clone(),
            mu: snap.header.mu,
        };
        let (n_users, n_items) = (snap.header.n_users as usize, snap.header.n_items as usize);
        if model.p.shape() != [n_users, cfg.dim] || model.q.shape() != [n_items, cfg.dim] {
            return Err(SnapshotError::Corrupt {
                context: format!(
                    "factor shapes {:?} / {:?} disagree with header {n_users}×{n_items}×{}",
                    model.p.shape(),
                    model.q.shape(),
                    cfg.dim
                ),
            });
        }
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_recdata::DatasetSpec;

    #[test]
    fn fit_reduces_loss() {
        let data = DatasetSpec::micro().generate(1);
        let mut mf = MatrixFactorization::new(MfConfig::default(), data.n_users(), data.n_items());
        let losses = mf.fit(&data);
        assert!(losses.last().unwrap() < &(0.5 * losses[0]), "losses: {:?}", &losses[..3]);
    }

    #[test]
    fn predictions_track_ratings() {
        let data = DatasetSpec::micro().generate(2);
        let mut mf = MatrixFactorization::new(
            MfConfig { epochs: 120, ..Default::default() },
            data.n_users(),
            data.n_items(),
        );
        mf.fit(&data);
        // Mean absolute error should beat always-predicting-3.
        let mut err = 0.0;
        let mut base = 0.0;
        for r in data.ratings.ratings() {
            err += (mf.predict(r.user as usize, r.item as usize) - r.value).abs();
            base += (3.0 - r.value).abs();
        }
        assert!(err < base, "MAE {err} vs baseline {base}");
    }

    #[test]
    fn deterministic_given_seed() {
        let data = DatasetSpec::micro().generate(3);
        let mut a = MatrixFactorization::new(MfConfig::default(), data.n_users(), data.n_items());
        let mut b = MatrixFactorization::new(MfConfig::default(), data.n_users(), data.n_items());
        a.fit(&data);
        b.fit(&data);
        assert_eq!(a.predict(1, 1), b.predict(1, 1));
    }
}
