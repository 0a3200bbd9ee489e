//! Evaluation metrics of §VI-A.6: average predicted rating r̄ and HitRate@k.

use crate::hetrec::HetRec;

/// Average predicted rating of `item` over `users` (the paper's r̄), computed
/// on the trained victim model.
pub fn avg_predicted_rating(model: &HetRec, users: &[usize], item: usize) -> f64 {
    assert!(!users.is_empty(), "r̄ needs at least one user");
    users.iter().map(|&u| model.predict(u, item)).sum::<f64>() / users.len() as f64
}

/// HitRate@k (§VI-A.6): the fraction of `users` for whom `target` ranks in
/// the top `k` positions among `competing` items by predicted rating.
///
/// `target` must be a member of `competing` (it competes against the rest).
/// Ties are counted pessimistically (a tie does not beat the target).
pub fn hit_rate_at_k(
    model: &HetRec,
    users: &[usize],
    target: usize,
    competing: &[usize],
    k: usize,
) -> f64 {
    assert!(!users.is_empty(), "HR@k needs at least one user");
    assert!(competing.contains(&target), "target must be in the competing pool");
    let mut hits = 0usize;
    for &u in users {
        let target_score = model.predict(u, target);
        let better = competing
            .iter()
            .filter(|&&i| i != target && model.predict(u, i) > target_score)
            .count();
        if better < k {
            hits += 1;
        }
    }
    hits as f64 / users.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hetrec::{HetRec, HetRecConfig};
    use msopds_recdata::DatasetSpec;

    fn trained() -> (msopds_recdata::Dataset, HetRec) {
        let data = DatasetSpec::micro().generate(4);
        let mut model = HetRec::new(
            HetRecConfig { epochs: 25, dim: 8, attention: false, ..Default::default() },
            data.n_users(),
            data.n_items(),
        );
        model.fit(&data);
        (data, model)
    }

    #[test]
    fn avg_rating_is_mean_of_predictions() {
        let (_, model) = trained();
        let users = [0usize, 1, 2];
        let avg = avg_predicted_rating(&model, &users, 5);
        let manual: f64 = users.iter().map(|&u| model.predict(u, 5)).sum::<f64>() / 3.0;
        assert!((avg - manual).abs() < 1e-12);
    }

    #[test]
    fn hit_rate_bounds() {
        let (_, model) = trained();
        let users: Vec<usize> = (0..10).collect();
        let competing: Vec<usize> = (0..8).collect();
        let hr1 = hit_rate_at_k(&model, &users, 3, &competing, 1);
        let hr8 = hit_rate_at_k(&model, &users, 3, &competing, 8);
        assert!((0.0..=1.0).contains(&hr1));
        assert_eq!(hr8, 1.0, "k = pool size must always hit");
        assert!(hr1 <= hit_rate_at_k(&model, &users, 3, &competing, 3));
    }

    #[test]
    #[should_panic(expected = "competing pool")]
    fn target_must_compete() {
        let (_, model) = trained();
        let _ = hit_rate_at_k(&model, &[0], 50, &[1, 2, 3], 3);
    }
}
