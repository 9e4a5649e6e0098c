//! Model synchronization between nodes.

/// How node models are combined at a synchronization barrier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SyncStrategy {
    /// Plain parameter averaging (AllReduce mean) — every node weighted
    /// equally, the classical local-SGD reducer.
    Average,
    /// Example-weighted averaging: node `a` contributes proportionally to
    /// its shard size `N_a`. Equal to [`SyncStrategy::Average`] when
    /// shards are equal (the Algorithm-4 line-9 sharding makes them equal
    /// up to one row).
    WeightedByShard,
}

/// Adds node `node`'s term of the consensus sum into `out`: its
/// `model` divided by the node count `nodes` ([`SyncStrategy::Average`])
/// or scaled by its shard's share of the rows in `shard_sizes`
/// ([`SyncStrategy::WeightedByShard`]). The one fold step: folding every
/// node's model, in node order, into zeros is [`average_models`] — and
/// what the coordinator does as each replica arrives.
pub(crate) fn fold_model(
    out: &mut [f64],
    model: &[f64],
    strategy: SyncStrategy,
    node: usize,
    nodes: usize,
    shard_sizes: &[usize],
) {
    match strategy {
        SyncStrategy::Average => {
            let k = nodes as f64;
            for (o, &v) in out.iter_mut().zip(model) {
                *o += v / k;
            }
        }
        SyncStrategy::WeightedByShard => {
            let total: usize = shard_sizes.iter().sum();
            let w = shard_sizes[node] as f64 / total as f64;
            for (o, &v) in out.iter_mut().zip(model) {
                *o += w * v;
            }
        }
    }
}

/// Reduces `models` (one per node) into the consensus model, in place in
/// `out`.
///
/// # Panics
/// Panics if `models` is empty, lengths differ, or `weights` (for
/// [`SyncStrategy::WeightedByShard`]) mismatch the node count.
#[expect(
    clippy::disallowed_macros,
    reason = "the documented caller contract; the coordinator vets every replica's length before it averages"
)]
pub fn average_models(
    models: &[Vec<f64>],
    shard_sizes: &[usize],
    strategy: SyncStrategy,
    out: &mut Vec<f64>,
) {
    assert!(!models.is_empty(), "no models to average");
    let d = models[0].len();
    for m in models {
        assert_eq!(m.len(), d, "model dimension mismatch");
    }
    if strategy == SyncStrategy::WeightedByShard {
        assert_eq!(shard_sizes.len(), models.len(), "one shard size per node");
        assert!(shard_sizes.iter().sum::<usize>() > 0, "empty cluster");
    }
    out.clear();
    out.resize(d, 0.0);
    for (node, m) in models.iter().enumerate() {
        fold_model(out, m, strategy, node, models.len(), shard_sizes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_average() {
        let models = vec![vec![1.0, 2.0], vec![3.0, 4.0]];
        let mut out = Vec::new();
        average_models(&models, &[1, 1], SyncStrategy::Average, &mut out);
        assert_eq!(out, vec![2.0, 3.0]);
    }

    #[test]
    fn weighted_average_respects_shard_sizes() {
        let models = vec![vec![1.0], vec![4.0]];
        let mut out = Vec::new();
        average_models(&models, &[3, 1], SyncStrategy::WeightedByShard, &mut out);
        assert!((out[0] - (0.75 * 1.0 + 0.25 * 4.0)).abs() < 1e-12);
    }

    #[test]
    fn weighted_equals_plain_for_equal_shards() {
        let models = vec![vec![1.0, -2.0], vec![5.0, 0.0], vec![0.0, 8.0]];
        let mut a = Vec::new();
        let mut b = Vec::new();
        average_models(&models, &[7, 7, 7], SyncStrategy::Average, &mut a);
        average_models(&models, &[7, 7, 7], SyncStrategy::WeightedByShard, &mut b);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn average_of_identical_models_is_identity() {
        let m = vec![0.5, -1.5, 3.0];
        let models = vec![m.clone(), m.clone(), m.clone(), m.clone()];
        let mut out = Vec::new();
        average_models(&models, &[2, 2, 2, 2], SyncStrategy::Average, &mut out);
        for (x, y) in out.iter().zip(&m) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "no models")]
    fn empty_input_panics() {
        let mut out = Vec::new();
        average_models(&[], &[], SyncStrategy::Average, &mut out);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_dims_panic() {
        let mut out = Vec::new();
        average_models(
            &[vec![1.0], vec![1.0, 2.0]],
            &[1, 1],
            SyncStrategy::Average,
            &mut out,
        );
    }
}
