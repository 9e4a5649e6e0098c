//! Algorithm 3 (Importance_Balancing) and shard diagnostics.

use isasgd_sparse::dataset::shard_ranges;
use isasgd_sparse::SparseError;

/// The paper's Algorithm 3: head-tail balancing permutation.
///
/// Sorts sample indices by importance, then interleaves the sorted head and
/// tail (`Ds[0], Ds[n-1], Ds[1], Ds[n-2], …`). Contiguously sharding the
/// result pairs one heavy with one light sample per step, approximating
/// equal shard importance sums `Φ_a` (Eq. 19). Exact equal-sum
/// partitioning is NP-hard (§2.4); this is the paper's fast heuristic.
///
/// The sort is ascending by weight, ties (and −0.0 against +0.0) broken by
/// index. It runs on `(key, index)` pairs, where the key is
/// `order_key` of the weight: one integer comparison per step and no
/// weight lookup. A NaN weight gets a key too, so the order is total
/// whatever the input; [`rearrange`](crate::rearrange) refuses NaN before
/// it gets here.
///
/// Returns the reordering `D_r` as indices into the original dataset.
pub fn head_tail_balance(weights: &[f64]) -> Vec<usize> {
    let n = weights.len();
    let sorted = keyed_order(weights, order_key);
    let mut out = Vec::with_capacity(n);
    let mut i = 0usize;
    let mut j = n;
    // Paper Alg. 3 lines 4-8: Dr[idx++]=Ds[i]; Dr[idx++]=Ds[n-1-i].
    while i + 1 < j {
        out.push(sorted[i]);
        out.push(sorted[j - 1]);
        i += 1;
        j -= 1;
    }
    if i < j {
        out.push(sorted[i]); // middle element when n is odd
    }
    out
}

/// A `u64` whose unsigned order is the numeric order of `w`: `a < b`
/// exactly when `order_key(a) < order_key(b)`, for any two non-NaN
/// weights. −0.0 folds onto +0.0 (`−0.0 + 0.0` is `+0.0`), so the two
/// zeros tie, as they compare equal. The sign bit is flipped on
/// non-negative bit patterns and every bit on negative ones, the usual
/// map from IEEE-754 to two's-complement order.
fn order_key(w: f64) -> u64 {
    let bits = (w + 0.0).to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Indices `0..weights.len()` ascending by `key(weight)`, ties broken by
/// index. The pairs are distinct, so the unstable sort's order is the
/// only one.
fn keyed_order(weights: &[f64], key: impl Fn(f64) -> u64) -> Vec<usize> {
    let mut keyed: Vec<(u64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (key(w), i))
        .collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, i)| i).collect()
}

/// Greedy LPT (longest-processing-time) balanced partition — an
/// **extension beyond the paper**.
///
/// Algorithm 3's head-tail interleave assumes pair sums
/// `L_(i) + L_(n-1-i)` are roughly constant, which holds for
/// near-symmetric importance distributions (like News20's) but *fails*
/// for right-skewed (e.g. log-normal) ones, where the heaviest pairs
/// concentrate in the first shard. The classic makespan heuristic fixes
/// this: sort descending, always assign to the currently lightest shard
/// (4/3-approximation to the NP-hard optimum the paper mentions in §2.4).
///
/// Returns a reorder such that contiguous sharding into `k` shards
/// reproduces the greedy assignment. Weights are sorted as in
/// [`head_tail_balance`], descending.
pub fn greedy_lpt_balance(weights: &[f64], k: usize) -> Result<Vec<usize>, SparseError> {
    let n = weights.len();
    let ranges = shard_ranges(n, k)?;
    let capacities: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
    // Descending by weight (the complemented key), ties by index.
    let sorted = keyed_order(weights, |w| !order_key(w));
    let mut bins: Vec<Vec<usize>> = capacities.iter().map(|&c| Vec::with_capacity(c)).collect();
    let mut loads = vec![0.0f64; k];
    for idx in sorted {
        // Lightest shard with remaining capacity, the first of equals.
        // Loads start at +0.0 and so are never −0.0: `total_cmp` is the
        // numeric order on them, and stays total on +∞ and NaN.
        let best = (0..k)
            .filter(|&b| bins[b].len() < capacities[b])
            .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
            .expect("the capacities sum to n, so a shard has room for every row");
        bins[best].push(idx);
        loads[best] += weights[idx];
    }
    Ok(bins.into_iter().flatten().collect())
}

/// Fisher–Yates random shuffling order (the paper's alternative when ρ is
/// small), deterministic under `seed`.
pub fn random_shuffle_order(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    // Inline xorshift so this crate does not depend on the sampling crate.
    let mut state = seed | 1;
    for i in (1..n).rev() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let j = (state % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order
}

/// Shard importance sums `Φ_a` (Eq. 18) for contiguous sharding of a
/// reordered weight sequence into `k` shards.
pub fn shard_importance(
    weights: &[f64],
    order: &[usize],
    k: usize,
) -> Result<Vec<f64>, SparseError> {
    let ranges = shard_ranges(order.len(), k)?;
    Ok(ranges
        .into_iter()
        .map(|r| r.map(|pos| weights[order[pos]]).sum())
        .collect())
}

/// Diagnostics of a sharding: how far the shard importance sums deviate
/// from perfect balance, and how much the realized sampling probabilities
/// distort from the global ideal (the Fig. 2 phenomenon).
#[derive(Debug, Clone, PartialEq)]
pub struct ShardReport {
    /// Importance sum per shard, `Φ_a`.
    pub phi: Vec<f64>,
    /// `max Φ / min Φ` — 1.0 is perfect balance (Eq. 19).
    pub imbalance_ratio: f64,
    /// Maximum over samples of `|p_local − p_global| / p_global`, where
    /// `p_global = L_i/ΣL · k` is the probability the sample would get if
    /// every shard were perfectly balanced.
    pub max_distortion: f64,
    /// Mean relative distortion.
    pub mean_distortion: f64,
}

impl ShardReport {
    /// Analyses the contiguous sharding of `order` into `k` shards.
    pub fn analyze(weights: &[f64], order: &[usize], k: usize) -> Result<Self, SparseError> {
        let phi = shard_importance(weights, order, k)?;
        let ranges = shard_ranges(order.len(), k)?;
        let total: f64 = weights.iter().sum();
        let mut max_d: f64 = 0.0;
        let mut sum_d = 0.0;
        let mut count = 0usize;
        for (a, r) in ranges.iter().enumerate() {
            for pos in r.clone() {
                let l = weights[order[pos]];
                // Local probability within shard a.
                let p_local = if phi[a] > 0.0 { l / phi[a] } else { 0.0 };
                // Global-ideal probability scaled to shard granularity:
                // with perfectly balanced shards Φ_a = total/k, so the
                // sample would get p = l·k/total.
                let p_ideal = l * k as f64 / total;
                if p_ideal > 0.0 {
                    let d = (p_local - p_ideal).abs() / p_ideal;
                    max_d = max_d.max(d);
                    sum_d += d;
                    count += 1;
                }
            }
        }
        let (mn, mx) = phi
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &x| {
                (a.min(x), b.max(x))
            });
        Ok(ShardReport {
            imbalance_ratio: if mn > 0.0 { mx / mn } else { f64::INFINITY },
            max_distortion: max_d,
            mean_distortion: if count > 0 { sum_d / count as f64 } else { 0.0 },
            phi,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The comparator sort both balancers used before their keyed sorts:
    /// the oracle the keys must reproduce.
    fn comparator_order(weights: &[f64], descending: bool) -> Vec<usize> {
        let mut sorted: Vec<usize> = (0..weights.len()).collect();
        sorted.sort_by(|&a, &b| {
            let (x, y) = if descending {
                (weights[b], weights[a])
            } else {
                (weights[a], weights[b])
            };
            x.partial_cmp(&y)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cmp(&b))
        });
        sorted
    }

    /// The greedy assignment loop as it was, over the comparator order.
    fn greedy_oracle(weights: &[f64], k: usize) -> Vec<usize> {
        let capacities: Vec<usize> = shard_ranges(weights.len(), k)
            .unwrap()
            .iter()
            .map(|r| r.len())
            .collect();
        let mut bins: Vec<Vec<usize>> = vec![Vec::new(); k];
        let mut loads = vec![0.0f64; k];
        for idx in comparator_order(weights, true) {
            let mut best = usize::MAX;
            let mut best_load = f64::INFINITY;
            for (b, bin) in bins.iter().enumerate() {
                if bin.len() < capacities[b] && loads[b] < best_load {
                    best = b;
                    best_load = loads[b];
                }
            }
            bins[best].push(idx);
            loads[best] += weights[idx];
        }
        bins.into_iter().flatten().collect()
    }

    /// Random weights drawn from a small pool, so most values repeat:
    /// ties, both zeros, subnormals and, when `extreme`, the largest
    /// finite value and +∞.
    fn pooled_weights(len: usize, seed: u64, extreme: bool) -> Vec<f64> {
        let mut pool = vec![
            0.0,
            -0.0,
            5e-324,
            2.5e-310,
            f64::MIN_POSITIVE,
            1e-3,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            7.0,
            1e300,
        ];
        if extreme {
            pool.extend([f64::MAX, f64::INFINITY]);
        }
        let mut state = seed | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                pool[(state % pool.len() as u64) as usize]
            })
            .collect()
    }

    #[test]
    fn keyed_sorts_reproduce_the_comparator_orders() {
        for seed in 1..=60u64 {
            let len = (seed as usize * 7) % 97;
            let w = pooled_weights(len, seed, true);
            assert_eq!(
                keyed_order(&w, order_key),
                comparator_order(&w, false),
                "ascending, seed {seed}"
            );
            assert_eq!(
                keyed_order(&w, |x| !order_key(x)),
                comparator_order(&w, true),
                "descending, seed {seed}"
            );
        }
        // The key is the numeric order, the two zeros one key.
        assert_eq!(order_key(-0.0), order_key(0.0));
        let ladder = [
            f64::NEG_INFINITY,
            -1.0,
            -5e-324,
            0.0,
            5e-324,
            1.0,
            f64::INFINITY,
        ];
        assert!(ladder.windows(2).all(|p| order_key(p[0]) < order_key(p[1])));
    }

    #[test]
    fn keyed_balancers_reproduce_the_comparator_balancers() {
        for seed in 1..=40u64 {
            let len = 1 + (seed as usize * 11) % 90;
            // Head-tail interleaves the sorted order, +∞ included.
            let w = pooled_weights(len, seed, true);
            let sorted = comparator_order(&w, false);
            let mut oracle = Vec::with_capacity(len);
            let (mut i, mut j) = (0, len);
            while i + 1 < j {
                oracle.extend([sorted[i], sorted[j - 1]]);
                (i, j) = (i + 1, j - 1);
            }
            oracle.extend(sorted.get(i).filter(|_| i < j));
            assert_eq!(head_tail_balance(&w), oracle, "head-tail, seed {seed}");
            // The old greedy loop could not place a row once every open
            // shard's load was +∞, which two f64::MAX weights already
            // reach; on smaller weights the two agree.
            let w = pooled_weights(len, seed, false);
            for k in [1, 2, 3, 7].into_iter().filter(|&k| k <= len) {
                assert_eq!(
                    greedy_lpt_balance(&w, k).unwrap(),
                    greedy_oracle(&w, k),
                    "greedy, seed {seed}, k {k}"
                );
            }
        }
    }

    #[test]
    fn greedy_places_every_row_past_an_infinite_load() {
        let w = [
            f64::INFINITY,
            1.0,
            f64::MAX,
            3.0,
            f64::MAX,
            0.5,
            f64::INFINITY,
        ];
        for k in 1..=w.len() {
            let mut order = greedy_lpt_balance(&w, k).unwrap();
            order.sort_unstable();
            assert_eq!(order, (0..w.len()).collect::<Vec<_>>(), "k {k}");
        }
    }

    #[test]
    fn head_tail_is_permutation() {
        let w = [5.0, 1.0, 3.0, 2.0, 4.0];
        let mut order = head_tail_balance(&w);
        order.sort_unstable();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn head_tail_pairs_light_with_heavy() {
        // Paper Fig. 2: L = {1,2,3,4}; balanced layout pairs (1,4) and
        // (2,3) so both 2-shards have Φ = 5.
        let w = [1.0, 2.0, 3.0, 4.0];
        let order = head_tail_balance(&w);
        assert_eq!(order, vec![0, 3, 1, 2]);
        let phi = shard_importance(&w, &order, 2).unwrap();
        assert_eq!(phi, vec![5.0, 5.0]);
    }

    #[test]
    fn fig2_random_layout_is_imbalanced() {
        // Identity order {x1,x2 | x3,x4} gives Φ = {3, 7}: the distortion
        // the paper illustrates (p4 smaller than p2 locally).
        let w = [1.0, 2.0, 3.0, 4.0];
        let identity: Vec<usize> = (0..4).collect();
        let phi = shard_importance(&w, &identity, 2).unwrap();
        assert_eq!(phi, vec![3.0, 7.0]);
        // Local probabilities: p2 = 2/3 = 0.67, p4 = 4/7 = 0.57 < p2.
        let p2 = w[1] / phi[0];
        let p4 = w[3] / phi[1];
        assert!(p4 < p2, "paper's Fig. 2 distortion must reproduce");
    }

    #[test]
    fn head_tail_beats_identity_on_skewed_weights() {
        let w: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let identity: Vec<usize> = (0..101).collect();
        let balanced = head_tail_balance(&w);
        for k in [2usize, 4, 7] {
            let r_id = ShardReport::analyze(&w, &identity, k).unwrap();
            let r_bal = ShardReport::analyze(&w, &balanced, k).unwrap();
            assert!(
                r_bal.imbalance_ratio <= r_id.imbalance_ratio,
                "k={k}: balanced {} vs identity {}",
                r_bal.imbalance_ratio,
                r_id.imbalance_ratio
            );
            // Alg. 3 is a heuristic, not an exact partitioner: pairs split
            // across shard boundaries leave a residue of roughly one
            // max-weight per shard.
            assert!(
                r_bal.imbalance_ratio < 1.25,
                "k={k}: {}",
                r_bal.imbalance_ratio
            );
        }
    }

    #[test]
    fn odd_length_keeps_middle() {
        let w = [1.0, 2.0, 3.0];
        let order = head_tail_balance(&w);
        assert_eq!(order, vec![0, 2, 1]);
    }

    #[test]
    fn single_and_empty() {
        assert_eq!(head_tail_balance(&[7.0]), vec![0]);
        assert!(head_tail_balance(&[]).is_empty());
    }

    #[test]
    fn shuffle_order_is_permutation_and_deterministic() {
        let a = random_shuffle_order(50, 9);
        let b = random_shuffle_order(50, 9);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        let c = random_shuffle_order(50, 10);
        assert_ne!(a, c);
    }

    #[test]
    fn report_perfect_balance() {
        let w = [1.0; 8];
        let order: Vec<usize> = (0..8).collect();
        let r = ShardReport::analyze(&w, &order, 4).unwrap();
        assert_eq!(r.imbalance_ratio, 1.0);
        assert_eq!(r.max_distortion, 0.0);
        assert_eq!(r.phi, vec![2.0; 4]);
    }

    #[test]
    fn report_errors_on_bad_k() {
        let w = [1.0, 2.0];
        let order = vec![0, 1];
        assert!(ShardReport::analyze(&w, &order, 0).is_err());
        assert!(ShardReport::analyze(&w, &order, 3).is_err());
    }

    #[test]
    fn greedy_is_permutation() {
        let w = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0];
        let mut order = greedy_lpt_balance(&w, 3).unwrap();
        order.sort_unstable();
        assert_eq!(order, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn greedy_handles_right_skewed_weights() {
        // Log-normal-ish heavy tail: the case where head-tail degrades.
        let w: Vec<f64> = (0..400)
            .map(|i| ((i as f64 * 0.7).sin() + 1.1).powi(6))
            .collect();
        for k in [4usize, 8, 16] {
            let ht = head_tail_balance(&w);
            let greedy = greedy_lpt_balance(&w, k).unwrap();
            let r_ht = ShardReport::analyze(&w, &ht, k).unwrap();
            let r_g = ShardReport::analyze(&w, &greedy, k).unwrap();
            assert!(
                r_g.imbalance_ratio <= r_ht.imbalance_ratio + 1e-9,
                "k={k}: greedy {} vs head-tail {}",
                r_g.imbalance_ratio,
                r_ht.imbalance_ratio
            );
            assert!(r_g.imbalance_ratio < 1.1, "k={k}: {}", r_g.imbalance_ratio);
        }
    }

    #[test]
    fn greedy_respects_capacities() {
        let w = [10.0, 1.0, 1.0, 1.0, 1.0];
        let order = greedy_lpt_balance(&w, 2).unwrap();
        // Shards must be the contiguous-range sizes (3, 2) regardless of
        // weight skew.
        assert_eq!(order.len(), 5);
        let phi = shard_importance(&w, &order, 2).unwrap();
        assert!(phi[0] > 0.0 && phi[1] > 0.0);
    }

    #[test]
    fn greedy_errors_on_bad_k() {
        assert!(greedy_lpt_balance(&[1.0], 0).is_err());
        assert!(greedy_lpt_balance(&[1.0], 2).is_err());
    }
}
