//! Sum-tree weighted sampler.
//!
//! Complements the [alias table](crate::alias): draws cost `O(log n)` but
//! weights can be *updated* in `O(log n)`, which the static alias table
//! cannot do. Used (a) as an independent oracle in differential tests of
//! the alias method, and (b) by the adaptive sampler, whose
//! `p_i ∝ ‖∇f_i(w_t)‖` estimates are refreshed during training (the
//! paper's "completely impractical" Eq. 11, made practical).

use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;

/// A dynamic weighted sampler over `n` outcomes: a complete binary tree
/// in heap layout whose leaves are the weights (padded with zeros to a
/// power of two), whose every internal node is exactly `left + right`,
/// and whose root is the total mass.
///
/// A write recomputes its leaf's ancestors from their children, so every
/// node is a pure function of the current weights whatever sequence of
/// writes produced them: a tree restored from checkpointed weights holds
/// bit-for-bit the tree a live sampler holds, and draws the same indices.
/// Equality compares that state; no node is ever negative or NaN, so
/// equal means bit-equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SumTree {
    /// `nodes[1]` is the root, `nodes[i]`'s children are `nodes[2i]` and
    /// `nodes[2i + 1]`, the leaves fill the upper half; `nodes[0]` is
    /// unused.
    nodes: Vec<f64>,
    /// Number of outcomes (leaves that are not padding).
    n: usize,
}

fn check(index: usize, value: f64) -> Result<(), SamplingError> {
    if !value.is_finite() || value < 0.0 {
        return Err(SamplingError::InvalidWeight { index, value });
    }
    Ok(())
}

impl SumTree {
    /// Builds the sampler from non-negative weights.
    pub fn new(weights: &[f64]) -> Result<Self, SamplingError> {
        if weights.is_empty() {
            return Err(SamplingError::EmptyWeights);
        }
        for (i, &w) in weights.iter().enumerate() {
            check(i, w)?;
        }
        let cap = weights.len().next_power_of_two();
        let mut nodes = vec![0.0; 2 * cap];
        nodes[cap..cap + weights.len()].copy_from_slice(weights);
        for i in (1..cap).rev() {
            nodes[i] = nodes[2 * i] + nodes[2 * i + 1];
        }
        if nodes[1] <= 0.0 {
            return Err(SamplingError::ZeroMass);
        }
        Ok(Self {
            nodes,
            n: weights.len(),
        })
    }

    /// Number of outcomes.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when there are no outcomes (unreachable through `new`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Total weight mass.
    pub fn total(&self) -> f64 {
        self.nodes[1]
    }

    /// The current weights, one per outcome.
    pub fn weights(&self) -> &[f64] {
        let cap = self.nodes.len() / 2;
        &self.nodes[cap..cap + self.n]
    }

    /// Current weight of outcome `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.weights()[i]
    }

    /// Writes leaf `i` and recomputes its ancestors. The caller has
    /// checked `i < n` and `w`, and checks the root after.
    fn set(&mut self, i: usize, w: f64) {
        let mut j = self.nodes.len() / 2 + i;
        let mut sum = w;
        self.nodes[j] = sum;
        while j > 1 {
            // Node plus sibling: IEEE addition commutes, so this is
            // `left + right` to the bit whichever side `j` is on.
            sum += self.nodes[j ^ 1];
            j /= 2;
            self.nodes[j] = sum;
        }
    }

    /// Sets the weight of outcome `i` to `w` in `O(log n)`: a
    /// [`SumTree::reweigh`] of one row.
    pub fn update(&mut self, i: usize, w: f64) -> Result<(), SamplingError> {
        self.reweigh([i], |_, _| w)
    }

    /// Replaces the weight of each outcome in `rows`, in order, by
    /// `weight(i, current)`: `O(m log n)` for `m` rows, all or nothing.
    /// An invalid weight, or a batch that would leave no mass to draw
    /// from ([`SamplingError::ZeroMass`]), is refused and its writes
    /// undone — nodes being a function of the weights, to the exact tree.
    pub fn reweigh(
        &mut self,
        rows: impl IntoIterator<Item = usize>,
        mut weight: impl FnMut(usize, f64) -> f64,
    ) -> Result<(), SamplingError> {
        let mut rows = rows.into_iter();
        let mut undo = Vec::with_capacity(rows.size_hint().0);
        let written = rows.try_for_each(|i| {
            let old = self.weight(i);
            let w = weight(i, old);
            check(i, w)?;
            self.set(i, w);
            undo.push((i, old));
            Ok(())
        });
        let refused = match written {
            Ok(()) if self.total() > 0.0 => return Ok(()),
            Ok(()) => SamplingError::ZeroMass,
            Err(e) => e,
        };
        for &(i, old) in undo.iter().rev() {
            self.set(i, old);
        }
        Err(refused)
    }

    /// Draws one outcome proportionally to current weights.
    pub fn sample(&self, rng: &mut Xoshiro256pp) -> usize {
        self.sample_at(rng.next_f64())
    }

    /// The outcome at quantile `u ∈ [0, 1)` of the cumulative
    /// distribution: descends from the root, going right past `left`
    /// mass. The walk never enters a zero-mass child — a node with mass
    /// has a child with mass — so whatever rounding does to the running
    /// target, the outcome it ends on has positive weight and is never
    /// padding.
    fn sample_at(&self, u: f64) -> usize {
        let cap = self.nodes.len() / 2;
        let mut target = u * self.total();
        let mut i = 1;
        while i < cap {
            // One slice, one bounds check, and a real branch below: for
            // one walk a branch-free select measured 1.3–2.5× slower.
            // Many walks at once are another matter (`sample_each`).
            let children = &self.nodes[2 * i..2 * i + 2];
            i *= 2;
            if target >= children[0] && children[1] > 0.0 {
                target -= children[0];
                i += 1;
            }
        }
        i - cap
    }

    /// Walks [`SumTree::sample_each`] descends side by side.
    pub(crate) const GROUP: usize = 16;

    /// The outcome at each quantile of `us`, into the same slot of
    /// `out` (which is as long): exactly [`SumTree::sample`]'s walk for
    /// each, but [`SumTree::GROUP`] walks descend together, one tree
    /// level at a time, each step a select instead of a branch. The
    /// walks of a group are independent, so their node loads overlap
    /// where one walk would wait for each in turn, and no step
    /// mispredicts.
    ///
    /// The select `t -= left · go` is the branch's `t -= left` when
    /// `go` and leaves `t` as it was otherwise: `left` is finite and
    /// non-negative, so `left · 0 = +0` and `t − 0 = t` (`t ≥ 0`).
    pub(crate) fn sample_each(&self, us: &[f64], out: &mut [usize]) {
        let cap = self.nodes.len() / 2;
        let total = self.total();
        for (us, out) in us.chunks(Self::GROUP).zip(out.chunks_mut(Self::GROUP)) {
            let mut target = [0.0; Self::GROUP];
            let mut node = [1usize; Self::GROUP];
            for (t, &u) in target.iter_mut().zip(us) {
                *t = u * total;
            }
            let walks = us.len();
            for _ in 0..cap.trailing_zeros() {
                for (t, i) in target.iter_mut().zip(&mut node).take(walks) {
                    let children = &self.nodes[2 * *i..2 * *i + 2];
                    let go = (*t >= children[0]) & (children[1] > 0.0);
                    *t -= children[0] * f64::from(u8::from(go));
                    *i = 2 * *i + usize::from(go);
                }
            }
            for (o, &i) in out.iter_mut().zip(&node) {
                *o = i - cap;
            }
        }
    }

    /// The normalized probability of outcome `i` under current weights.
    pub fn probability(&self, i: usize) -> f64 {
        self.weight(i) / self.total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn every_node_is_the_sum_of_its_children() {
        let w = [0.5, 1.5, 0.0, 3.0, 2.0];
        let mut t = SumTree::new(&w).unwrap();
        t.update(2, 0.25).unwrap();
        t.reweigh([4, 0], |_, old| old * 3.0).unwrap();
        for i in 1..t.nodes.len() / 2 {
            assert_eq!(t.nodes[i], t.nodes[2 * i] + t.nodes[2 * i + 1], "node {i}");
        }
        assert_eq!(t.weights(), [1.5, 1.5, 0.25, 3.0, 6.0]);
        assert!((t.total() - 12.25).abs() < 1e-12);
    }

    #[test]
    fn sampling_matches_distribution() {
        let w = [4.0, 1.0, 3.0, 2.0];
        let f = SumTree::new(&w).unwrap();
        let mut rng = Xoshiro256pp::new(17);
        let mut counts = [0usize; 4];
        let draws = 200_000;
        for _ in 0..draws {
            counts[f.sample(&mut rng)] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            let freq = c as f64 / draws as f64;
            let expect = w[i] / 10.0;
            assert!(
                (freq - expect).abs() < 0.01,
                "outcome {i}: {freq} vs {expect}"
            );
        }
    }

    #[test]
    fn update_changes_distribution() {
        let mut f = SumTree::new(&[1.0, 1.0]).unwrap();
        f.update(0, 0.0).unwrap();
        let mut rng = Xoshiro256pp::new(23);
        for _ in 0..5_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
        assert_eq!(f.weight(0), 0.0);
        assert!((f.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn update_rejects_bad_weight() {
        let mut f = SumTree::new(&[1.0]).unwrap();
        assert!(f.update(0, -2.0).is_err());
        assert!(f.update(0, f64::INFINITY).is_err());
    }

    #[test]
    fn zero_weight_never_sampled() {
        let f = SumTree::new(&[0.0, 5.0, 0.0]).unwrap();
        let mut rng = Xoshiro256pp::new(31);
        for _ in 0..10_000 {
            assert_eq!(f.sample(&mut rng), 1);
        }
    }

    #[test]
    fn a_draw_never_lands_on_a_zero_weight_outcome() {
        // Regression: the Fenwick descend clamped fp residue to the last
        // row (`pos.min(n - 1)`) whatever its weight, and took row 0 at
        // u = 0 even when it had none. Probe both ends of [0, 1) and both
        // sides of every leaf boundary, on sizes that leave padding.
        let below_one = 1.0 - 2f64.powi(-53);
        for n in [1usize, 2, 3, 5, 6, 7, 13, 100] {
            // Zeros lead, trail and sit inside; the weights are not
            // dyadic, so prefix sums round.
            let w: Vec<f64> = (0..n)
                .map(|i| match i % 3 {
                    1 => 0.1 + i as f64 / 7.0,
                    _ if n == 1 => 0.1,
                    _ => 0.0,
                })
                .collect();
            let t = SumTree::new(&w).unwrap();
            let mut us = vec![0.0, below_one];
            let mut prefix = 0.0;
            for &x in &w {
                prefix += x;
                let u = prefix / t.total();
                us.extend([u - f64::EPSILON, u, u + f64::EPSILON]);
            }
            us.retain(|u| (0.0..1.0).contains(u));
            us.sort_by(f64::total_cmp);
            let mut last = 0;
            for u in us {
                let i = t.sample_at(u);
                assert!(i < n && w[i] > 0.0, "n={n} u={u}: outcome {i} has no mass");
                assert!(i >= last, "n={n} u={u}: quantiles must be monotone");
                last = i;
            }
            assert_eq!(t.sample_at(0.0), w.iter().position(|&x| x > 0.0).unwrap());
            assert_eq!(
                t.sample_at(below_one),
                w.iter().rposition(|&x| x > 0.0).unwrap()
            );
        }
    }

    /// Weights over `n` ∈ {1, 2^k, 2^k + 1} outcomes (powers of two fill
    /// the tree, one more leaves it nearly all padding), a third of them
    /// zero, the rest small integers (dyadic prefix sums) or arbitrary
    /// magnitudes (rounded ones).
    fn arb_weights() -> impl Strategy<Value = Vec<f64>> {
        (0u32..9, 0usize..2)
            .prop_flat_map(|(k, extra)| {
                let weight = prop_oneof![Just(0.0), (1u32..9).prop_map(f64::from), 1e-3f64..1e3];
                prop::collection::vec(weight, (1 << k) + extra..(1 << k) + extra + 1)
            })
            .prop_filter("a tree needs mass", |w| w.iter().any(|&x| x > 0.0))
    }

    proptest! {
        /// The batched descent is the one-walk descent, quantile for
        /// quantile: at `u` = 0 and 1 − 2⁻⁵³, at `u` putting the target
        /// on every internal node's left mass and a step either side of
        /// it, and at random `u` — in batches that fill whole groups,
        /// end in a partial one, or hold a single walk.
        #[test]
        fn batched_draws_are_one_walk_draws(w in arb_weights(), us in prop::collection::vec(0.0f64..1.0, 0..40)) {
            let t = SumTree::new(&w).unwrap();
            let cap = t.nodes.len() / 2;
            let mut quantiles = vec![0.0, 1.0 - 2f64.powi(-53)];
            for i in 1..cap {
                let u = t.nodes[2 * i] / t.total();
                quantiles.extend([u, u.next_down(), u.next_up()]);
            }
            quantiles.retain(|u| (0.0..1.0).contains(u));
            quantiles.extend(us);
            let one_walk: Vec<usize> = quantiles.iter().map(|&u| t.sample_at(u)).collect();
            for batch in [1, 7, SumTree::GROUP, quantiles.len()] {
                let mut batched = vec![usize::MAX; quantiles.len()];
                for (us, out) in quantiles.chunks(batch).zip(batched.chunks_mut(batch)) {
                    t.sample_each(us, out);
                }
                prop_assert_eq!(&batched, &one_walk, "batches of {}", batch);
            }
            prop_assert!(one_walk.iter().all(|&i| w[i] > 0.0));
        }
    }

    #[test]
    fn construction_errors() {
        assert!(SumTree::new(&[]).is_err());
        assert!(SumTree::new(&[0.0]).is_err());
        assert!(SumTree::new(&[f64::NAN]).is_err());
    }

    #[test]
    fn writes_that_would_leave_no_mass_are_refused_and_change_nothing() {
        let mut t = SumTree::new(&[0.0, 2.5, 0.0, 0.75, 0.0]).unwrap();
        t.update(3, 0.0).unwrap();
        let before = t.clone();
        assert_eq!(t.update(1, 0.0), Err(SamplingError::ZeroMass));
        assert_eq!(t, before);
        // A batch is judged as a whole: mass may move between rows, it
        // may not vanish.
        assert_eq!(t.reweigh([3, 1], |_, _| 0.0), Err(SamplingError::ZeroMass));
        assert_eq!(t, before);
        t.reweigh([1, 4], |i, _| if i == 4 { 1.0 } else { 0.0 })
            .unwrap();
        assert_eq!(t, SumTree::new(&[0.0, 0.0, 0.0, 0.0, 1.0]).unwrap());
    }

    #[test]
    fn any_update_history_leaves_the_tree_of_a_fresh_build() {
        // Two samplers reaching the same weights through different
        // update histories hold bitwise identical state (the
        // checkpoint-restore exactness contract).
        let w = [0.1, 0.7, 1.3, 2.9, 0.05, 4.4, 0.33];
        let mut a = SumTree::new(&w).unwrap();
        for k in 0..100 {
            a.update(2, 0.1 + k as f64 * 0.01).unwrap();
            a.update(5, 7.7 / (k + 1) as f64).unwrap();
        }
        a.update(2, w[2]).unwrap();
        a.update(5, w[5]).unwrap();
        let b = SumTree::new(&w).unwrap();
        assert_eq!(a, b, "trees over equal weights must be bitwise equal");
    }

    #[test]
    fn reweigh_equals_a_fresh_build_and_undoes_a_refused_batch() {
        let mut w = [0.1, 0.7, 1.3, 2.9, 0.05, 4.4, 0.33];
        let mut a = SumTree::new(&w).unwrap();
        a.reweigh([5, 0, 2], |i, old| old * i as f64).unwrap();
        (w[5], w[0], w[2]) = (w[5] * 5.0, 0.0, w[2] * 2.0);
        assert_eq!(a, SumTree::new(&w).unwrap());
        // A bad write refuses the batch; the writes before it (one row
        // twice) are undone and the tree is the one it was.
        let bad = a.reweigh(
            [1, 1, 3, 4],
            |i, old| {
                if i == 3 {
                    f64::NAN
                } else {
                    old + 9.0
                }
            },
        );
        assert!(matches!(
            bad,
            Err(SamplingError::InvalidWeight { index: 3, .. })
        ));
        assert_eq!(a, SumTree::new(&w).unwrap());
    }

    #[test]
    fn non_power_of_two_sizes() {
        for n in [1usize, 2, 3, 5, 7, 13, 100, 257] {
            let w: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let f = SumTree::new(&w).unwrap();
            let mut rng = Xoshiro256pp::new(n as u64);
            for _ in 0..1000 {
                let s = f.sample(&mut rng);
                assert!(s < n, "n={n} sample={s}");
            }
        }
    }
}
