//! Weighted sampling machinery for importance sampling SGD.
//!
//! The paper's practical IS-SGD (Algorithm 2) hinges on the observation that
//! the non-uniform sampling distribution `P = {p_i = L_i / Σ L_j}` is
//! *static*: it depends only on the per-sample Lipschitz constants, so the
//! sample sequence can be generated offline and the training kernel stays
//! identical to plain ASGD. This crate provides:
//!
//! * [`AliasTable`] — Walker/Vose alias method: `O(n)` build, `O(1)` draws.
//! * [`SumTree`] — a heap-layout binary sum tree: `O(log n)` draws *and*
//!   weight writes, every node a pure function of the weights (no rebuild
//!   after a write, bit-equal after a restore); the oracle in tests and
//!   the substrate of the adaptive sampler.
//! * [`SampleSequence`] — pre-generated per-thread index sequences with the
//!   paper's §4.2 "generate once, shuffle every epoch" approximation.
//! * [`rng`] — small, fast, reproducible PRNGs (SplitMix64, Xoshiro256++)
//!   so every experiment is seed-deterministic.
//!
//! # The `Sampler` abstraction
//!
//! The [`Sampler`] trait puts the three distributions a solver can draw
//! from behind `next`/`correction`/`update_weight`/`epoch_reset`, and it
//! has two implementations — the paper's own split. Uniform and
//! static-IS draws are both fixed before training, so they are one
//! pre-generated sampler (a cursor over a [`SampleSequence`]; it stays
//! private) that differs only in how its sequence was generated and in
//! the `1/(n·p_i)` it reports; [`AdaptiveIsSampler`] is sum-tree-backed
//! and re-weighted from observed gradient magnitudes. [`build_sampler`]
//! is the one constructor of both. The solver runtime
//! in `isasgd-core` consumes `Box<dyn Sampler>` per worker shard, so every
//! (algorithm, execution) pair supports every [`SamplingStrategy`] without
//! touching its training kernel; `isasgd-cluster` nodes do the same.
//! The strategy is surfaced to users as `isasgd train --sampling
//! {uniform,static,adaptive}`.
//!
//! # The stream is the worker
//!
//! Every runtime builds its workers with [`ScheduleStream::for_shard`]:
//! shard `k` of `K`, its row range, its weights, its rows' norms, the
//! master seed and the sampling configuration go in, and out comes the
//! one object that owns the shard's sampler, its private draw RNG and
//! the seed layout behind both ([`balance_seed`] names the one seed of
//! that layout a stream does not consume). Draws leave in bounded chunks,
//! so schedules are never materialized per epoch and a mid-epoch sampler
//! re-weight is visible to the very next chunk — on sequential,
//! simulated, threaded, and cluster execution alike.
//!
//! Adaptive sampling closes a loop: kernels observe per-sample gradient
//! scales, and the sampler's distribution tracks them.
//! [`ScheduleStream::observe`] is that loop's only entry point: the
//! stream turns a raw gradient scale into the exact `|ℓ'(m)|·‖x‖`
//! gradient norm with the norms of its own rows, refuses rows of other
//! shards, and feeds its own sampler. *When* accumulated observations become visible
//! to draws is the sampler's [`CommitPolicy`]: at epoch boundaries
//! (deterministic, per-epoch-unbiased) or every `k` observations
//! (intra-epoch adaptivity at `O(k log n)` a commit, visible as the
//! sampler's advancing [`Sampler::commit_version`];
//! [`CommitPolicy::check_strategy`] is the rule that it needs an adaptive
//! sampler). Worker shards are disjoint,
//! so nothing is shared across threads. Surfaced as `isasgd train
//! --commit {epoch,every-k,every-<n>}`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Determinism (README, *Static guarantees*): the lists in this crate's
// `clippy.toml` and the lints below; the only escape hatch is
// `#[expect(clippy::…, reason = "…")]` on the statement.
#![cfg_attr(
    not(test),
    deny(
        clippy::disallowed_methods,
        clippy::disallowed_types,
        clippy::float_cmp,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod alias;
pub mod error;
pub mod rng;
pub mod sampler;
pub mod sequence;
pub mod stream;
pub mod sumtree;

pub use alias::AliasTable;
pub use error::SamplingError;
pub use rng::{splitmix64, Xoshiro256pp};
pub use sampler::{
    build_sampler, AdaptiveIsSampler, CommitPolicy, Sampler, SamplerSnapshot, SamplingStrategy,
};
pub use sequence::{SampleSequence, SequenceMode};
pub use stream::{balance_seed, Draw, ScheduleStream, ShardSpec};
pub use sumtree::SumTree;

/// Inverse-probability step correction `1/(n·p_i)` for each sample
/// (paper Eq. 8): with `p_i = L_i/ΣL`, this equals `L̄/L_i`.
///
/// This is the canonical implementation; `isasgd-losses` re-exports it so
/// the static and adaptive sampling paths can never drift.
pub fn step_corrections(weights: &[f64]) -> Vec<f64> {
    let n = weights.len() as f64;
    let total: f64 = weights.iter().sum();
    let mean = total / n;
    weights.iter().map(|&l| mean / l).collect()
}

/// Normalizes a weight vector into a probability distribution.
///
/// Returns an error if the weights are empty, contain negatives/NaN, or sum
/// to zero.
pub(crate) fn normalize_weights(weights: &[f64]) -> Result<Vec<f64>, SamplingError> {
    if weights.is_empty() {
        return Err(SamplingError::EmptyWeights);
    }
    let mut sum = 0.0;
    for (i, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(SamplingError::InvalidWeight { index: i, value: w });
        }
        sum += w;
    }
    if sum <= 0.0 {
        return Err(SamplingError::ZeroMass);
    }
    Ok(weights.iter().map(|&w| w / sum).collect())
}

/// Lint canary: fails `-D warnings` the day `clippy.toml` stops listing
/// the hash containers.
#[cfg(clippy)]
#[expect(clippy::disallowed_types, reason = "canary")]
const _: Option<std::collections::HashMap<u8, u8>> = None;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalize_ok() {
        let p = normalize_weights(&[1.0, 3.0]).unwrap();
        assert_eq!(p, vec![0.25, 0.75]);
    }

    #[test]
    fn normalize_rejects_bad_inputs() {
        assert!(matches!(
            normalize_weights(&[]),
            Err(SamplingError::EmptyWeights)
        ));
        assert!(matches!(
            normalize_weights(&[1.0, -2.0]),
            Err(SamplingError::InvalidWeight { index: 1, .. })
        ));
        assert!(matches!(
            normalize_weights(&[0.0, 0.0]),
            Err(SamplingError::ZeroMass)
        ));
        assert!(normalize_weights(&[f64::NAN]).is_err());
    }
}
