//! Importance balancing for sharded IS-ASGD (paper §2.3–2.4).
//!
//! When data is segmented across threads, each worker can only sample from
//! its *local* shard, so the per-sample probabilities become
//! `p_i^(a) = L_i / Φ_a` with `Φ_a = Σ_{i ∈ shard a} L_i` (Eq. 18) instead
//! of the global `L_i / Σ L`. If the shard importance sums `Φ_a` differ,
//! the realized distribution is distorted (Fig. 2's example). The paper's
//! fix is Algorithm 3: sort by `L_i`, then pair head and tail indices so
//! every consecutive pair lands in a different shard-slice, approximately
//! equalizing `Φ_a`.
//!
//! This crate provides the metrics deciding *whether* to balance
//! (ψ of Eq. 15, ρ of Eq. 20), the balancing permutation itself, the
//! diagnostics quantifying residual imbalance and distortion, and
//! [`rearrange`], the one function that applies a decision to a dataset
//! and cuts the shards every runtime's workers train from.

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

pub mod metrics;
pub mod partition;
pub mod policy;

pub use metrics::{psi, psi_normalized, rho, ImportanceProfile};
pub use partition::{
    greedy_lpt_balance, head_tail_balance, random_shuffle_order, shard_importance, ShardReport,
};
pub use policy::{decide, rearrange, BalanceDecision, BalancePolicy, Rearranged};

/// Lint canary: fails `-D warnings` the day `clippy.toml` stops listing
/// the hash containers.
#[cfg(clippy)]
#[expect(clippy::disallowed_types, reason = "canary")]
const _: Option<std::collections::HashMap<u8, u8>> = None;
