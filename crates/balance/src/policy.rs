//! The adaptive balancing policy of Algorithm 4 (lines 2–6).
//!
//! The paper computes ρ (Eq. 20) and chooses between Importance_Balancing
//! and Random_Shuffling. Note on fidelity: Algorithm 4 as printed says
//! "if ρ ≤ ζ then balance", but §2.4's prose defines *low* ρ as *low*
//! imbalance risk, and §4 reports that News20 — the dataset with the
//! **largest** ρ in Table 1 — was balanced while the smaller-ρ datasets
//! were shuffled. We implement the semantics consistent with the prose and
//! the evaluation (balance when ρ ≥ ζ); this note is the record of that
//! one departure from the algorithm as printed.

use crate::metrics::rho;
use crate::partition::{greedy_lpt_balance, head_tail_balance, random_shuffle_order};
use isasgd_sparse::dataset::shard_ranges;
use isasgd_sparse::{Dataset, SparseError};
use std::ops::Range;

/// The paper's empirical threshold ζ = 5e-4 (§2.4, "ζ is empirically set
/// as 5^-4", read as 5e-4).
pub const DEFAULT_ZETA: f64 = 5e-4;

/// Balancing policy for IS-ASGD data rearrangement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BalancePolicy {
    /// Decide from ρ against threshold ζ (Algorithm 4).
    Adaptive {
        /// Imbalance-potential threshold.
        zeta: f64,
    },
    /// Always run Algorithm 3 head-tail balancing.
    ForceBalance,
    /// Always use the greedy LPT partition (extension beyond the paper;
    /// robust to right-skewed importance distributions — see
    /// [`greedy_lpt_balance`]).
    ForceGreedy,
    /// Always randomly shuffle.
    ForceShuffle,
    /// Keep the dataset order as-is (worst case; for ablations).
    Identity,
}

impl Default for BalancePolicy {
    fn default() -> Self {
        BalancePolicy::Adaptive { zeta: DEFAULT_ZETA }
    }
}

/// The outcome of applying a [`BalancePolicy`].
#[derive(Debug, Clone, PartialEq)]
pub struct BalanceDecision {
    /// The reorder to apply before sharding.
    pub order: Vec<usize>,
    /// Whether importance balancing (head-tail or greedy) was used.
    pub balanced: bool,
    /// The ρ that was measured (even for forced policies, for logging).
    pub rho: f64,
}

/// Applies a policy to an importance-weight vector, producing the data
/// rearrangement of Algorithm 4 lines 2–6. `shards` is the number of
/// contiguous shards the order will be split into (used by the greedy
/// partitioner; the paper's head-tail layout is shard-count-agnostic).
pub fn decide(weights: &[f64], policy: BalancePolicy, seed: u64, shards: usize) -> BalanceDecision {
    decide_over(weights.len(), Some(weights), policy, seed, shards)
}

/// [`decide`] over `n` rows, where `weights = None` stands for `n` equal
/// weights: ρ is 0 and, unless a balancing layout is chosen, no weight
/// vector is built.
fn decide_over(
    n: usize,
    weights: Option<&[f64]>,
    policy: BalancePolicy,
    seed: u64,
    shards: usize,
) -> BalanceDecision {
    let rho = weights.map_or(0.0, rho);
    let balance = |by: fn(&[f64], usize) -> Vec<usize>| match weights {
        Some(w) => by(w, shards),
        None => by(&vec![1.0; n], shards),
    };
    let head_tail = |w: &[f64], _| head_tail_balance(w);
    let greedy = |w: &[f64], shards: usize| {
        greedy_lpt_balance(w, shards.clamp(1, w.len().max(1)))
            .unwrap_or_else(|_| (0..w.len()).collect())
    };
    let (order, balanced) = match policy {
        BalancePolicy::Adaptive { zeta } if rho >= zeta => (balance(head_tail), true),
        BalancePolicy::ForceBalance => (balance(head_tail), true),
        BalancePolicy::ForceGreedy => (balance(greedy), true),
        BalancePolicy::Adaptive { .. } | BalancePolicy::ForceShuffle => {
            (random_shuffle_order(n, seed), false)
        }
        BalancePolicy::Identity => ((0..n).collect(), false),
    };
    BalanceDecision {
        order,
        balanced,
        rho,
    }
}

/// A dataset after Algorithm 4's offline phase: rearranged, weighed and
/// cut into one contiguous shard per worker. Every worker of every
/// runtime trains from a shard of one of these.
#[derive(Debug, Clone)]
pub struct Rearranged {
    /// The dataset in the order the policy chose: a view sharing the
    /// source's rows, or a contiguous copy (see [`rearrange`]).
    pub data: Dataset,
    /// The importance weight of each row of `data`; empty when the rows
    /// were rearranged unweighted.
    pub weights: Vec<f64>,
    /// Contiguous shard (row range into `data`) per worker.
    pub ranges: Vec<Range<usize>>,
    /// Whether importance balancing (head-tail or greedy) was used.
    pub balanced: bool,
    /// The measured ρ of the weights.
    pub rho: f64,
}

/// Algorithm 4 lines 2–9 after the weighing: [`decide`] the order,
/// rearrange the rows and their weights by it, and split the result
/// into `shards` contiguous ranges. `weights = None` rearranges
/// unweighted rows (uniform sampling: every policy sees equal weights
/// and nothing is carried along). Fails when `shards` is 0 or exceeds
/// the row count, when `weights` has not one weight per row, and — with
/// [`SparseError::BadWeight`], naming the first such row, before any
/// balancer runs — when a weight is NaN, infinite or negative: no
/// sampling distribution can be built from it, and a NaN leaves the
/// balancing sort nothing to order by.
///
/// This is the one place that chooses the rows' layout. Two or more
/// shards get a contiguous copy ([`Dataset::reordered_contiguous`]),
/// cut at the shard ranges so that each shard's rows are copied on a
/// thread of their own: each concurrent worker then walks its own
/// stretch of memory. One shard gets a view of `ds`'s rows
/// ([`Dataset::reordered`]), or a shallow clone of `ds` when the order
/// is the identity: a single worker gains no locality from the copy,
/// so it is skipped. Either way the rows, their order and every value
/// are the same.
pub fn rearrange(
    ds: &Dataset,
    weights: Option<&[f64]>,
    policy: BalancePolicy,
    seed: u64,
    shards: usize,
) -> Result<Rearranged, SparseError> {
    let n = ds.n_samples();
    let ranges = shard_ranges(n, shards)?;
    if let Some(w) = weights {
        if w.len() != n {
            return Err(SparseError::DimMismatch {
                expected: n,
                found: w.len(),
            });
        }
        if let Some(row) = w.iter().position(|x| !(x.is_finite() && *x >= 0.0)) {
            return Err(SparseError::BadWeight {
                row,
                weight: w[row],
            });
        }
    }
    let decision = decide_over(n, weights, policy, seed, shards);
    let data = if shards > 1 {
        ds.reordered_contiguous(&decision.order, &ranges)?
    } else if decision.order.iter().enumerate().all(|(k, &i)| k == i) {
        ds.clone()
    } else {
        ds.reordered(&decision.order)?
    };
    Ok(Rearranged {
        data,
        weights: weights.map_or_else(Vec::new, |w| decision.order.iter().map(|&i| w[i]).collect()),
        ranges,
        balanced: decision.balanced,
        rho: decision.rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use isasgd_sparse::DatasetBuilder;

    #[test]
    fn adaptive_balances_high_rho() {
        // Wide spread ⇒ ρ large ⇒ balance.
        let w = [0.1, 10.0, 0.2, 20.0];
        let d = decide(&w, BalancePolicy::default(), 1, 2);
        assert!(d.balanced);
        assert!(d.rho > DEFAULT_ZETA);
    }

    #[test]
    fn adaptive_shuffles_low_rho() {
        // Nearly constant weights ⇒ ρ tiny ⇒ shuffle.
        let w = [1.0, 1.0001, 0.9999, 1.0];
        let d = decide(&w, BalancePolicy::default(), 1, 2);
        assert!(!d.balanced);
        assert!(d.rho < DEFAULT_ZETA);
    }

    #[test]
    fn forced_policies() {
        let w = [1.0, 2.0, 3.0];
        assert!(decide(&w, BalancePolicy::ForceBalance, 0, 3).balanced);
        assert!(decide(&w, BalancePolicy::ForceGreedy, 0, 3).balanced);
        assert!(!decide(&w, BalancePolicy::ForceShuffle, 0, 3).balanced);
        let id = decide(&w, BalancePolicy::Identity, 0, 3);
        assert_eq!(id.order, vec![0, 1, 2]);
    }

    #[test]
    fn decision_order_is_permutation() {
        let w = [3.0, 1.0, 4.0, 1.5, 9.0];
        for policy in [
            BalancePolicy::default(),
            BalancePolicy::ForceBalance,
            BalancePolicy::ForceGreedy,
            BalancePolicy::ForceShuffle,
            BalancePolicy::Identity,
        ] {
            let mut o = decide(&w, policy, 7, 2).order;
            o.sort_unstable();
            assert_eq!(o, vec![0, 1, 2, 3, 4], "{policy:?}");
        }
    }

    #[test]
    fn rearrange_applies_the_decision_to_rows_and_weights() {
        let mut b = DatasetBuilder::new(1);
        let w = [3.0, 1.0, 4.0, 1.5, 9.0];
        for &v in &w {
            b.push_row(&[(0, v)], 1.0).unwrap();
        }
        let ds = b.finish();
        for policy in [BalancePolicy::ForceBalance, BalancePolicy::Identity] {
            let d = decide(&w, policy, 7, 2);
            let r = rearrange(&ds, Some(&w), policy, 7, 2).unwrap();
            assert_eq!(r.data, ds.reordered(&d.order).unwrap(), "{policy:?}");
            // Row i of the result carries the weight it was weighed with.
            for (i, &wi) in r.weights.iter().enumerate() {
                assert_eq!(r.data.row(i).values, [wi], "{policy:?} row {i}");
            }
            assert_eq!(r.ranges, vec![0..2, 2..5]);
            assert_eq!((r.balanced, r.rho), (d.balanced, d.rho));
        }
        // Unweighted rows: the same shuffle, nothing carried along.
        let shuffled = rearrange(&ds, None, BalancePolicy::ForceShuffle, 7, 2).unwrap();
        let order = decide(&w, BalancePolicy::ForceShuffle, 7, 2).order;
        assert_eq!(shuffled.data, ds.reordered(&order).unwrap());
        assert!(shuffled.weights.is_empty());
        assert_eq!((shuffled.balanced, shuffled.rho), (false, 0.0));
        assert!(rearrange(&ds, None, BalancePolicy::Identity, 7, 0).is_err());
        assert!(rearrange(&ds, Some(&w), BalancePolicy::Identity, 7, 6).is_err());
    }

    /// The layout rule: one shard shares the source's rows, whatever the
    /// order; two or more shards get rows of their own, laid end to end,
    /// even under the identity order.
    #[test]
    fn rearrange_shares_rows_for_one_shard_and_copies_for_more() {
        let mut b = DatasetBuilder::new(3);
        let w = [3.0, 1.0, 4.0, 1.5, 9.0, 2.5];
        for (i, &v) in w.iter().enumerate() {
            let pairs: Vec<(u32, f64)> = (0..=(i % 3) as u32).map(|j| (j, v)).collect();
            b.push_row(&pairs, 1.0).unwrap();
        }
        let ds = b.finish();
        let shares = |src: &Dataset, r: &Rearranged, order: &[usize]| {
            (0..order.len()).all(|k| {
                std::ptr::eq(
                    r.data.row(k).indices.as_ptr(),
                    src.row(order[k]).indices.as_ptr(),
                )
            })
        };
        for policy in [
            BalancePolicy::ForceBalance,
            BalancePolicy::ForceShuffle,
            BalancePolicy::Identity,
        ] {
            let order = decide(&w, policy, 7, 1).order;
            let r = rearrange(&ds, Some(&w), policy, 7, 1).unwrap();
            assert!(shares(&ds, &r, &order), "{policy:?}");
        }
        // An identity order over a source that is itself a view keeps
        // that view's rows.
        let view = ds.reordered(&[5, 3, 1, 0, 2, 4]).unwrap();
        let r = rearrange(&view, None, BalancePolicy::Identity, 7, 1).unwrap();
        assert!(shares(&view, &r, &[0, 1, 2, 3, 4, 5]));
        assert_eq!(r.data, view);
        for (policy, shards) in [
            (BalancePolicy::Identity, 2),
            (BalancePolicy::ForceBalance, 2),
            (BalancePolicy::ForceGreedy, 3),
            (BalancePolicy::Identity, 6),
            (BalancePolicy::ForceShuffle, 6),
        ] {
            let order = decide(&w, policy, 7, shards).order;
            let r = rearrange(&ds, Some(&w), policy, 7, shards).unwrap();
            assert_eq!(r.data, ds.reordered(&order).unwrap());
            assert!(!std::ptr::eq(
                r.data.row(0).indices.as_ptr(),
                ds.row(order[0]).indices.as_ptr()
            ));
            for k in 1..w.len() {
                let prev = r.data.row(k - 1).indices;
                assert!(
                    std::ptr::eq(prev.as_ptr_range().end, r.data.row(k).indices.as_ptr()),
                    "{policy:?} × {shards}: row {k}"
                );
            }
        }
    }

    /// Regression: an infinite weight (a row whose ‖x‖² overflows) made
    /// the greedy balancer index past its shards, and a NaN weight left
    /// the head-tail sort without a total order. Both are refused by
    /// name before any balancer runs, under every policy, as is a
    /// negative weight and a weight vector of the wrong length.
    #[test]
    fn rearrange_refuses_weights_no_distribution_can_use() {
        let mut b = DatasetBuilder::new(1);
        for v in [3.0, 1.0, 4.0, 1.5] {
            b.push_row(&[(0, v)], 1.0).unwrap();
        }
        let ds = b.finish();
        for policy in [
            BalancePolicy::default(),
            BalancePolicy::ForceBalance,
            BalancePolicy::ForceGreedy,
            BalancePolicy::ForceShuffle,
            BalancePolicy::Identity,
        ] {
            for (row, bad) in [
                (2, f64::INFINITY),
                (0, f64::NAN),
                (3, -1.0),
                (1, f64::NEG_INFINITY),
            ] {
                let mut w = vec![1.0, 2.0, 3.0, 4.0];
                w[row] = bad;
                for shards in [1, 2, 4] {
                    match rearrange(&ds, Some(&w), policy, 7, shards) {
                        Err(SparseError::BadWeight { row: at, weight }) => {
                            assert_eq!((at, weight.to_bits()), (row, bad.to_bits()));
                        }
                        other => panic!("{policy:?} × {shards}, {bad} at {row}: {other:?}"),
                    }
                }
            }
            assert_eq!(
                rearrange(&ds, Some(&[1.0; 3]), policy, 7, 2).unwrap_err(),
                SparseError::DimMismatch {
                    expected: 4,
                    found: 3
                }
            );
            // Zero weights, negative zero included, are weights.
            assert!(rearrange(&ds, Some(&[0.0, -0.0, 1.0, 0.0]), policy, 7, 2).is_ok());
        }
    }

    #[test]
    fn custom_zeta_threshold() {
        let w = [1.0, 2.0]; // ρ = 0.25
        let d = decide(&w, BalancePolicy::Adaptive { zeta: 0.3 }, 0, 2);
        assert!(!d.balanced);
        let d = decide(&w, BalancePolicy::Adaptive { zeta: 0.2 }, 0, 2);
        assert!(d.balanced);
    }

    #[test]
    fn greedy_policy_balances_shards() {
        use crate::partition::shard_importance;
        let w: Vec<f64> = (1..=100).map(|i| (i as f64).powi(3)).collect();
        let d = decide(&w, BalancePolicy::ForceGreedy, 0, 4);
        let phi = shard_importance(&w, &d.order, 4).unwrap();
        let (mn, mx) = phi
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                (a.min(x), b.max(x))
            });
        assert!(mx / mn < 1.05, "greedy phi spread {mx}/{mn}");
    }
}
