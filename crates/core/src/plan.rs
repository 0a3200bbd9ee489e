//! Importance vectors and budget-constrained binarization (§IV-A, Fig. 2).
//!
//! The importance vector **X** ∈ ℝ^{|𝒞|} holds a priority per candidate
//! poisoning action. A poisoning plan is extracted by *binarizing*: within
//! each budget group, the top-`take` entries become 1 (selected) and the rest
//! 0. Budget groups encode the per-type constraints of §VI-A.3 (e.g. "connect
//! each fake account to N real users" is one group per fake account).

use msopds_autograd::Tensor;
use msopds_recdata::PoisonAction;
use serde::{Deserialize, Serialize};

/// One budget constraint: select at most `take` of the listed candidates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct BudgetGroup {
    /// Human-readable label (diagnostics only).
    pub label: String,
    /// Indices into the candidate list / importance vector.
    pub indices: Vec<usize>,
    /// Number of actions to select from this group.
    pub take: usize,
}

impl BudgetGroup {
    /// A new group selecting `take` of `indices`.
    pub fn new(label: impl Into<String>, indices: Vec<usize>, take: usize) -> Self {
        Self { label: label.into(), indices, take }
    }
}

/// The continuous importance vector of one player plus its capacity metadata.
#[derive(Clone, Debug)]
pub struct ImportanceVector {
    /// Candidate actions, aligned with `values`.
    pub candidates: Vec<PoisonAction>,
    /// Current priorities.
    pub values: Vec<f64>,
    /// Budget groups (must reference disjoint index sets).
    pub groups: Vec<BudgetGroup>,
}

impl ImportanceVector {
    /// Initializes priorities to zero.
    ///
    /// # Panics
    /// Panics if any group index is out of range, groups overlap, or a budget
    /// exceeds its group size.
    pub fn new(candidates: Vec<PoisonAction>, groups: Vec<BudgetGroup>) -> Self {
        let n = candidates.len();
        let mut seen = vec![false; n];
        for g in &groups {
            assert!(g.take <= g.indices.len(), "group '{}' budget exceeds its size", g.label);
            for &i in &g.indices {
                assert!(i < n, "group '{}' index {i} out of range", g.label);
                assert!(!seen[i], "candidate {i} appears in two budget groups");
                seen[i] = true;
            }
        }
        Self { candidates, values: vec![0.0; n], groups }
    }

    /// Number of candidate actions.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// True when there are no candidates.
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// Total budget across groups (the plan size after binarization).
    pub fn total_budget(&self) -> usize {
        self.groups.iter().map(|g| g.take).sum()
    }

    /// Binarizes the current priorities: within each group the top-`take`
    /// values map to 1, everything else (including ungrouped candidates) to 0.
    ///
    /// Ties are broken toward the lower index, which makes the extraction
    /// deterministic.
    pub fn binarize(&self) -> Tensor {
        self.binarize_values(&self.values)
    }

    /// Binarizes an external priority vector against this capacity's budget
    /// groups (used by the MSO loop, which owns the evolving vector).
    ///
    /// # Panics
    /// Panics if `values` has the wrong length or contains non-finite entries.
    pub fn binarize_values(&self, values: &[f64]) -> Tensor {
        assert_eq!(values.len(), self.values.len(), "priority vector length mismatch");
        let mut out = vec![0.0; values.len()];
        for g in &self.groups {
            let mut order: Vec<usize> = g.indices.clone();
            order.sort_by(|&a, &b| {
                values[b].partial_cmp(&values[a]).expect("finite priorities").then(a.cmp(&b))
            });
            for &i in order.iter().take(g.take) {
                out[i] = 1.0;
            }
        }
        Tensor::from_vec(out, &[values.len()])
    }

    /// The selected actions under the current priorities.
    pub fn extract_plan(&self) -> Vec<PoisonAction> {
        let xhat = self.binarize();
        self.candidates
            .iter()
            .zip(xhat.data())
            .filter_map(|(&a, &x)| (x > 0.5).then_some(a))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rating(u: u32) -> PoisonAction {
        PoisonAction::Rating { user: u, item: 0, value: 5.0 }
    }

    fn vector_with(values: Vec<f64>, groups: Vec<BudgetGroup>) -> ImportanceVector {
        let candidates = (0..values.len() as u32).map(rating).collect();
        let mut iv = ImportanceVector::new(candidates, groups);
        iv.values = values;
        iv
    }

    #[test]
    fn binarize_selects_top_per_group() {
        let iv = vector_with(
            vec![0.1, 0.9, 0.5, 0.2, 0.8],
            vec![BudgetGroup::new("a", vec![0, 1, 2], 2), BudgetGroup::new("b", vec![3, 4], 1)],
        );
        assert_eq!(iv.binarize().to_vec(), vec![0.0, 1.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn ties_break_toward_lower_index() {
        let iv = vector_with(vec![0.5, 0.5, 0.5], vec![BudgetGroup::new("g", vec![0, 1, 2], 1)]);
        assert_eq!(iv.binarize().to_vec(), vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn ungrouped_candidates_never_selected() {
        let iv = vector_with(vec![9.0, 0.1], vec![BudgetGroup::new("g", vec![1], 1)]);
        assert_eq!(iv.binarize().to_vec(), vec![0.0, 1.0]);
    }

    #[test]
    fn extract_plan_matches_binarization() {
        let iv = vector_with(vec![0.3, 0.7], vec![BudgetGroup::new("g", vec![0, 1], 1)]);
        let plan = iv.extract_plan();
        assert_eq!(plan, vec![rating(1)]);
        assert_eq!(iv.total_budget(), 1);
    }

    #[test]
    #[should_panic(expected = "two budget groups")]
    fn overlapping_groups_panic() {
        let _ = vector_with(
            vec![0.0, 0.0],
            vec![BudgetGroup::new("a", vec![0], 1), BudgetGroup::new("b", vec![0, 1], 1)],
        );
    }

    #[test]
    #[should_panic(expected = "budget exceeds")]
    fn oversized_budget_panics() {
        let _ = vector_with(vec![0.0], vec![BudgetGroup::new("g", vec![0], 2)]);
    }

    #[test]
    fn binarize_is_idempotent_under_repeat() {
        let iv = vector_with(vec![0.4, 0.2, 0.6], vec![BudgetGroup::new("g", vec![0, 1, 2], 2)]);
        assert_eq!(iv.binarize().to_vec(), iv.binarize().to_vec());
    }
}
