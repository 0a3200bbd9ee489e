//! Adversarial losses: Injection Attack (eq. 3) and Comprehensive Attack
//! (eq. 5), built from the surrogate's score components so they are
//! differentiable all the way back to the importance vectors.

use std::sync::Arc;

use msopds_autograd::Var;

/// The differentiable score model `ℛ(u,i) = μ + b_u + b_i + h_uᶠ·h_iᶠ`
/// (μ is a constant and cancels in every adversarial objective, so it is not
/// carried here).
#[derive(Clone, Copy)]
pub struct Scores<'t> {
    /// Final user embeddings `[n_users, d]`.
    pub user_final: Var<'t>,
    /// Final item embeddings `[n_items, d]`.
    pub item_final: Var<'t>,
    /// Per-user bias `[n_users]`.
    pub user_bias: Var<'t>,
    /// Per-item bias `[n_items]`.
    pub item_bias: Var<'t>,
}

impl<'t> Scores<'t> {
    /// Scores of one `item` for a list of `users`: `[k]`.
    pub fn users_item(&self, users: &[usize], item: usize) -> Var<'t> {
        let k = users.len();
        let d = self.user_final.value().cols();
        let users_idx = Arc::new(users.to_vec());
        let uf = self.user_final.gather_rows(Arc::clone(&users_idx));
        let it = self.item_final.gather_rows(Arc::new(vec![item]));
        uf.mul(it.reshape(&[d]).broadcast_rows(k))
            .sum_rows()
            .add(self.user_bias.gather_elems(users_idx))
            .add(self.item_bias.gather_elems(Arc::new(vec![item])).expand(&[k]))
    }

    /// Score matrix `[k, m]` of `items` for `users`.
    pub fn users_items(&self, users: &[usize], items: &[usize]) -> Var<'t> {
        let (k, m) = (users.len(), items.len());
        let users_idx = Arc::new(users.to_vec());
        let items_idx = Arc::new(items.to_vec());
        let uf = self.user_final.gather_rows(Arc::clone(&users_idx));
        let itf = self.item_final.gather_rows(Arc::clone(&items_idx));
        uf.matmul(itf.t())
            .add(self.user_bias.gather_elems(users_idx).broadcast_cols(m))
            .add(self.item_bias.gather_elems(items_idx).broadcast_rows(k))
    }
}

/// Injection Attack loss (eq. 3): the negative mean predicted rating of the
/// target item across `users`.
pub fn ia_loss<'t>(scores: &Scores<'t>, users: &[usize], target_item: usize) -> Var<'t> {
    assert!(!users.is_empty(), "IA loss needs at least one user");
    scores.users_item(users, target_item).mean().neg()
}

/// Comprehensive Attack loss (eq. 5):
/// `1/|U_TA| Σ_u Σ_c SELU( ℛ(u,c) − ℛ(u,i_t) )`,
/// which penalizes every (user, competitor) pair where the target item loses.
pub fn ca_loss<'t>(
    scores: &Scores<'t>,
    target_audience: &[usize],
    target_item: usize,
    competing: &[usize],
) -> Var<'t> {
    assert!(!target_audience.is_empty(), "CA loss needs a target audience");
    assert!(!competing.is_empty(), "CA loss needs competing items");
    let k = target_audience.len();
    let m = competing.len();
    let comp_scores = scores.users_items(target_audience, competing); // [k, m]
    let target_scores = scores.users_item(target_audience, target_item); // [k]
    let diff = comp_scores.sub(target_scores.broadcast_cols(m));
    diff.selu().sum().scale(1.0 / k as f64)
}

/// Demotion variant of the CA objective used by opponents (§VI-A.4): the
/// *positive* mean predicted rating of the (attacker's) target item over the
/// audience — minimizing it pushes the item down.
pub fn demotion_loss<'t>(scores: &Scores<'t>, users: &[usize], target_item: usize) -> Var<'t> {
    ia_loss(scores, users, target_item).neg()
}

#[cfg(test)]
mod tests {
    use super::*;
    use msopds_autograd::{Tape, Tensor};

    /// A score model with zero (constant) biases.
    fn without_bias<'t>(user_final: Var<'t>, item_final: Var<'t>) -> Scores<'t> {
        let tape = user_final.tape();
        let nu = user_final.value().rows();
        let ni = item_final.value().rows();
        Scores {
            user_final,
            item_final,
            user_bias: tape.constant(Tensor::zeros(&[nu])),
            item_bias: tape.constant(Tensor::zeros(&[ni])),
        }
    }

    /// Embeddings where user 0 loves item 0 and hates item 1.
    fn fixture(tape: &Tape) -> Scores<'_> {
        let uf = tape.leaf(Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]));
        let if_ = tape.leaf(Tensor::from_vec(vec![4.0, 0.0, -2.0, 1.0, 3.0, 3.0], &[3, 2]));
        without_bias(uf, if_)
    }

    #[test]
    fn ia_loss_is_negative_mean_rating() {
        let tape = Tape::new();
        let s = fixture(&tape);
        // Scores of item 0: user0 = 4, user1 = 0. Mean = 2 → loss = −2.
        let l = ia_loss(&s, &[0, 1], 0);
        assert!((l.item() + 2.0).abs() < 1e-12);
    }

    #[test]
    fn item_bias_shifts_all_users() {
        let tape = Tape::new();
        let base = fixture(&tape);
        let biased =
            Scores { item_bias: tape.leaf(Tensor::from_vec(vec![0.7, 0.0, 0.0], &[3])), ..base };
        let l0 = ia_loss(&base, &[0, 1], 0).item();
        let l1 = ia_loss(&biased, &[0, 1], 0).item();
        assert!((l0 - l1 - 0.7).abs() < 1e-12, "bias must shift the mean by 0.7");
    }

    #[test]
    fn user_bias_cancels_in_ca_loss() {
        let tape = Tape::new();
        let base = fixture(&tape);
        let shifted =
            Scores { user_bias: tape.leaf(Tensor::from_vec(vec![5.0, -2.0], &[2])), ..base };
        let a = ca_loss(&base, &[0, 1], 0, &[1, 2]).item();
        let b = ca_loss(&shifted, &[0, 1], 0, &[1, 2]).item();
        assert!((a - b).abs() < 1e-9, "CA loss compares items per user: {a} vs {b}");
    }

    #[test]
    fn ca_loss_zero_when_target_dominates() {
        let tape = Tape::new();
        let uf = tape.leaf(Tensor::from_vec(vec![1.0, 0.0], &[1, 2]));
        let if_ = tape.leaf(Tensor::from_vec(vec![10.0, 0.0, 0.0, 0.0], &[2, 2]));
        let s = without_bias(uf, if_);
        let dominated = ca_loss(&s, &[0], 0, &[1]);
        let losing = ca_loss(&s, &[0], 1, &[0]);
        assert!(dominated.item() < 0.0);
        assert!(losing.item() > 5.0, "losing target should incur a large loss");
        assert!(losing.item() > dominated.item());
    }

    #[test]
    fn ca_loss_gradient_pushes_target_up() {
        let tape = Tape::new();
        let uf = tape.leaf(Tensor::from_vec(vec![1.0, 0.5], &[1, 2]));
        let if_ = tape.leaf(Tensor::from_vec(vec![0.4, 0.1, 0.6, 0.2], &[2, 2]));
        let s = without_bias(uf, if_);
        let l = ca_loss(&s, &[0], 0, &[1]);
        let g = tape.grad(l, &[if_]).remove(0);
        // Increasing the target's score along the user direction reduces the
        // loss; the competitor's gradient points the other way.
        assert!(g.at(0, 0) < 0.0);
        assert!(g.at(1, 0) > 0.0);
    }

    #[test]
    fn demotion_is_negated_ia() {
        let tape = Tape::new();
        let s = fixture(&tape);
        let ia = ia_loss(&s, &[0, 1], 2).item();
        let dem = demotion_loss(&s, &[0, 1], 2).item();
        assert!((ia + dem).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least one user")]
    fn ia_empty_users_panics() {
        let tape = Tape::new();
        let s = fixture(&tape);
        let _ = ia_loss(&s, &[], 0);
    }

    #[test]
    fn users_items_matches_users_item_columns() {
        let tape = Tape::new();
        let s = fixture(&tape);
        let matrix = s.users_items(&[0, 1], &[0, 2]).value();
        let col0 = s.users_item(&[0, 1], 0).value();
        let col2 = s.users_item(&[0, 1], 2).value();
        assert!((matrix.at(0, 0) - col0.get(0)).abs() < 1e-12);
        assert!((matrix.at(1, 1) - col2.get(1)).abs() < 1e-12);
    }
}
