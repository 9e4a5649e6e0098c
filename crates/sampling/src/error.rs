//! Error types for the sampling crate.

use std::fmt;

/// Errors from constructing samplers or sequences.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplingError {
    /// The weight vector was empty.
    EmptyWeights,
    /// A weight was negative, NaN or infinite.
    InvalidWeight {
        /// Position of the offending weight.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// All weights were zero — no probability mass to sample from.
    ZeroMass,
    /// Two parallel per-outcome vectors disagree in length.
    LengthMismatch {
        /// Length of the weight vector.
        weights: usize,
        /// Length of the companion vector (e.g. step corrections).
        other: usize,
    },
    /// Requested a sequence of zero length.
    EmptySequence,
    /// A sampler snapshot was restored into a sampler of another kind.
    SnapshotMismatch {
        /// The snapshot kind this sampler restores.
        expected: &'static str,
    },
    /// An intra-epoch commit policy was paired with a sampler that
    /// ignores feedback.
    CommitNeedsAdaptive {
        /// The offending policy's display name.
        commit: String,
    },
    /// A stream was requested for a shard the run does not have.
    ShardOutOfRange {
        /// The requested shard index `k`.
        shard: usize,
        /// The run's shard count `K`.
        shards: usize,
    },
}

impl fmt::Display for SamplingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SamplingError::EmptyWeights => write!(f, "weight vector is empty"),
            SamplingError::InvalidWeight { index, value } => {
                write!(f, "invalid weight {value} at index {index}")
            }
            SamplingError::ZeroMass => write!(f, "weights sum to zero"),
            SamplingError::LengthMismatch { weights, other } => {
                write!(
                    f,
                    "length mismatch: {weights} weights vs {other} companion entries"
                )
            }
            SamplingError::EmptySequence => write!(f, "sample sequence length must be positive"),
            SamplingError::SnapshotMismatch { expected } => {
                write!(
                    f,
                    "snapshot kind mismatch: this sampler restores {expected} snapshots"
                )
            }
            SamplingError::CommitNeedsAdaptive { commit } => write!(
                f,
                "commit policy '{commit}' needs adaptive sampling (only adaptive samplers \
                 re-weight from observations): sample adaptively from a non-uniform \
                 importance scheme, or commit at epoch boundaries"
            ),
            SamplingError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard {shard} is not one of the run's {shards} shards")
            }
        }
    }
}

impl std::error::Error for SamplingError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        assert!(SamplingError::EmptyWeights.to_string().contains("empty"));
        let e = SamplingError::InvalidWeight {
            index: 2,
            value: -1.0,
        };
        assert!(e.to_string().contains("-1"));
    }
}
