//! The [`Sampler`] trait: one interface for every way a solver can pick
//! its next training sample.
//!
//! The paper's practical insight (Algorithm 2) is that *static*
//! importance sampling leaves the training kernel identical to uniform
//! ASGD — only the index stream changes. This module turns that
//! observation into an abstraction: solvers consume `Sampler::fill` and
//! `Sampler::correction` without knowing whether indices come from a
//! uniform stream, a pre-generated weighted sequence, or a live
//! sum-tree distribution that re-weights itself from observed
//! per-sample gradient magnitudes (the adaptive scheme of Katharopoulos &
//! Fleuret 2018 and the distributed estimator of Alain et al. 2015 — the
//! "completely impractical" exact scheme of the paper's Eq. 11 made
//! practical by `O(log n)` weight updates).
//!
//! Two samplers, one constructor ([`build_sampler`]) — the paper's own
//! split between a distribution fixed before training and one that is
//! not:
//!
//! * the pre-generated sampler (private; [`SamplingStrategy::Uniform`]
//!   and [`SamplingStrategy::Static`]) — a cursor over a
//!   [`SampleSequence`]. Uniform and static-IS draws differ only in how
//!   the sequence was generated and in the step correction: 1, or the
//!   frozen `1/(n·p_i)` of the weights the sequence was drawn from.
//! * [`AdaptiveIsSampler`] ([`SamplingStrategy::Adaptive`]) — a
//!   [`SumTree`]-backed distribution whose weights are refreshed from
//!   observed per-sample importance via [`Sampler::update_weight`].

use crate::error::SamplingError;
use crate::rng::Xoshiro256pp;
use crate::sequence::{SampleSequence, SequenceMode};
use crate::stream::Draw;
use crate::sumtree::SumTree;

/// Which sampling distribution a training run draws from.
///
/// This is the knob surfaced as `--sampling` in the CLI; the solver
/// kernels are identical across all three (the paper's central point).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Uniform sampling (plain SGD/ASGD baselines).
    Uniform,
    /// Static importance sampling from offline weights (paper Alg. 2/4).
    #[default]
    Static,
    /// Adaptive importance sampling: starts from the static weights and
    /// re-weights between epochs from observed gradient magnitudes.
    Adaptive,
}

impl SamplingStrategy {
    /// Parses a CLI name.
    pub fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "uniform" => SamplingStrategy::Uniform,
            "static" => SamplingStrategy::Static,
            "adaptive" => SamplingStrategy::Adaptive,
            _ => return None,
        })
    }

    /// The CLI/display name.
    pub fn name(&self) -> &'static str {
        match self {
            SamplingStrategy::Uniform => "uniform",
            SamplingStrategy::Static => "static",
            SamplingStrategy::Adaptive => "adaptive",
        }
    }

    /// Whether this strategy needs importance weights at plan time.
    pub fn uses_importance(&self) -> bool {
        !matches!(self, SamplingStrategy::Uniform)
    }
}

/// When an adaptive sampler folds its pending observations into the live
/// distribution.
///
/// The paper keeps its distribution frozen for a whole run; the adaptive
/// extension re-estimates it from observed gradient magnitudes. *When*
/// those estimates become visible to draws is a policy choice:
///
/// * [`CommitPolicy::EpochBoundary`] — commit once per epoch, at
///   [`Sampler::epoch_reset`]. Every epoch samples from one fixed
///   distribution, preserving the per-epoch unbiasedness argument and
///   keeping pre-generated schedules valid.
/// * [`CommitPolicy::EveryK`] — additionally commit after every `k`
///   accepted observations, *inside* the epoch. Draws that happen after a
///   commit see the refreshed distribution, so the sampler tracks the
///   shifting gradient landscape within a single pass (the intra-epoch
///   adaptivity the ROADMAP asks for). Every runtime consumes draws
///   through a [`ScheduleStream`](crate::ScheduleStream) — sequential,
///   simulated, threaded, and cluster execution all deliver genuine
///   intra-epoch updates; a run's [`Sampler::commit_version`] trace shows
///   the commits landing mid-epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CommitPolicy {
    /// Commit pending observations only at epoch boundaries (default; the
    /// deterministic, per-epoch-unbiased mode).
    #[default]
    EpochBoundary,
    /// Commit after every `k` accepted observations as well as at epoch
    /// boundaries. `k = 0` is normalized to 1 at use.
    EveryK(usize),
}

impl CommitPolicy {
    /// Default `k` for the bare `--commit every-k` CLI spelling.
    pub const DEFAULT_EVERY_K: usize = 32;

    /// Parses a CLI name: `epoch`, `every-k`, or `every-<n>`.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "epoch" => Some(CommitPolicy::EpochBoundary),
            "every-k" => Some(CommitPolicy::EveryK(Self::DEFAULT_EVERY_K)),
            _ => {
                let n: usize = s.strip_prefix("every-")?.parse().ok()?;
                (n > 0).then_some(CommitPolicy::EveryK(n))
            }
        }
    }

    /// The CLI/display name (`every-<k>` for explicit strides).
    pub fn name(&self) -> String {
        match self {
            CommitPolicy::EpochBoundary => "epoch".to_string(),
            CommitPolicy::EveryK(k) => format!("every-{k}"),
        }
    }

    /// The one rule every run validator applies: intra-epoch commits
    /// only exist for samplers that consume feedback. Any other
    /// strategy would accept the policy and silently run epoch-boundary
    /// semantics, so the pairing is refused instead.
    pub fn check_strategy(self, strategy: SamplingStrategy) -> Result<(), SamplingError> {
        if matches!(self, CommitPolicy::EveryK(_)) && strategy != SamplingStrategy::Adaptive {
            return Err(SamplingError::CommitNeedsAdaptive {
                commit: self.name(),
            });
        }
        Ok(())
    }
}

/// Round-boundary sampler state carried by worker checkpoints: exactly
/// the state that survives an epoch boundary.
///
/// At a boundary, pre-generated samplers sit at cursor 0 of their epoch
/// buffer and adaptive samplers have an empty pending window (the
/// boundary [`Sampler::epoch_reset`] committed it), so this enum plus
/// the worker's draw RNG fully determines the remaining run.
#[derive(Debug, Clone, PartialEq)]
pub enum SamplerSnapshot {
    /// The pre-generated sampler (uniform and static strategies): the
    /// sequence RNG plus the current epoch buffer. Frozen corrections
    /// are config-derived and not carried.
    Sequence {
        /// The [`SampleSequence`] generator state.
        rng: [u64; 4],
        /// The current epoch's index buffer.
        indices: Vec<u32>,
    },
    /// [`AdaptiveIsSampler`]: the live tree's weights plus the commit
    /// counter.
    Adaptive {
        /// Dense live weights, one per shard row.
        weights: Vec<f64>,
        /// Observation windows folded so far.
        commits: u64,
    },
}

/// A stream of sample indices over `0..len()` outcomes, with per-outcome
/// importance-sampling step corrections and optional adaptivity hooks.
///
/// `Send` so per-worker samplers can cross into worker threads.
pub trait Sampler: Send {
    /// Number of outcomes (rows in this sampler's shard).
    fn len(&self) -> usize;

    /// True when the sampler has no outcomes (unreachable through the
    /// provided constructors).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Draws the next `out.len()` samples, in order, into `out`: each as
    /// its outcome's row — `first_row` plus its index in `0..len()` —
    /// and that outcome's [`Sampler::correction`] at draw time. The
    /// same draws, and the same `rng` state after, as that many draws
    /// one at a time.
    ///
    /// Pre-generated samplers ignore `rng` (their stream was fixed at
    /// construction, preserving the paper's offline-sequence semantics);
    /// live samplers consume it.
    fn fill(&mut self, rng: &mut Xoshiro256pp, first_row: usize, out: &mut [Draw]);

    /// The unbiasing step correction `1/(n·p_i)` for outcome `i` under
    /// the *current* distribution (`1.0` for uniform sampling).
    fn correction(&self, i: usize) -> f64;

    /// Feeds back an observed importance value (e.g. per-sample gradient
    /// norm) for outcome `i`. Non-adaptive samplers ignore it.
    fn update_weight(&mut self, i: usize, observed: f64) {
        let _ = (i, observed);
    }

    /// Epoch boundary: refresh pre-generated streams / commit adaptive
    /// re-weighting.
    fn epoch_reset(&mut self);

    /// Whether [`Sampler::update_weight`] has any effect — lets drivers
    /// skip collecting feedback otherwise.
    fn is_adaptive(&self) -> bool {
        false
    }

    /// Number of observation windows folded into the live distribution
    /// so far — the sampler's *commit version*. Advancing by more than
    /// one per epoch is the signature of intra-epoch adaptivity
    /// ([`CommitPolicy::EveryK`]); non-adaptive samplers stay at 0.
    fn commit_version(&self) -> u64 {
        0
    }

    /// Accepted observations left before the next intra-epoch commit
    /// ([`CommitPolicy::EveryK`]), at least 1; `None` when no
    /// observation can commit before the epoch ends. Draws taken within
    /// that many observations share one distribution.
    fn until_commit(&self) -> Option<usize> {
        None
    }

    /// Captures the sampler's round-boundary state for a worker
    /// checkpoint. Call only at an epoch boundary (right after
    /// [`Sampler::epoch_reset`]); see [`SamplerSnapshot`].
    fn snapshot(&self) -> SamplerSnapshot;

    /// Restores state captured by [`Sampler::snapshot`] into a freshly
    /// built sampler of the same shape (same strategy, shard length and
    /// sequence length). Fails on a kind, length, or weight-validity
    /// mismatch, leaving the sampler unchanged.
    fn restore(&mut self, snap: SamplerSnapshot) -> Result<(), SamplingError>;
}

/// Outcome `i` of `sampler` as the draw of row `first_row + i`, with its
/// correction: what every [`Sampler::fill`] writes, the correction read
/// without a dynamic call.
#[inline]
fn draw(sampler: &impl Sampler, first_row: usize, i: usize) -> Draw {
    Draw {
        row: (first_row + i) as u32,
        corr: sampler.correction(i),
    }
}

/// Builds the boxed [`Sampler`] for one worker shard under `strategy`.
///
/// This is the single construction point shared by the `isasgd-core`
/// engine plan and `isasgd-cluster` nodes, so the two runtimes can never
/// drift in what a strategy means. `weights` carries the shard's
/// importance weights; it is ignored (uniform fallback) when the
/// strategy does not use importance. Uniform draws have no weighted
/// sequence modes: they are i.i.d. whatever `mode` says.
pub fn build_sampler(
    strategy: SamplingStrategy,
    weights: Option<&[f64]>,
    len: usize,
    mode: SequenceMode,
    seed: u64,
    commit: CommitPolicy,
) -> Result<Box<dyn Sampler>, SamplingError> {
    let (seq, corrections) = match (strategy, weights) {
        (SamplingStrategy::Adaptive, Some(w)) => {
            return Ok(Box::new(AdaptiveIsSampler::new(w)?.with_commit(commit)))
        }
        // Corrections `1/(n·p_i) = L̄/L_i` (paper Eq. 8) come from the
        // weights the sequence is drawn from.
        (SamplingStrategy::Static, Some(w)) => (
            SampleSequence::weighted(w, len, mode, seed)?,
            Some(crate::step_corrections(w)),
        ),
        _ => (SampleSequence::uniform(len, len, seed)?, None),
    };
    Ok(Box::new(SequenceSampler {
        seq,
        cursor: 0,
        corrections,
    }))
}

/// Pre-generated sampling, uniform and static-IS alike: a cursor over a
/// [`SampleSequence`] (wrapping if over-drawn; an epoch reset refreshes
/// the buffer and rewinds) plus the frozen `1/(n·p_i)` corrections of a
/// weighted sequence. Built only by [`build_sampler`].
#[derive(Debug, Clone)]
struct SequenceSampler {
    seq: SampleSequence,
    cursor: usize,
    /// `None` for uniform draws: every correction is 1, read from no
    /// memory.
    corrections: Option<Vec<f64>>,
}

impl Sampler for SequenceSampler {
    fn len(&self) -> usize {
        self.seq.n_outcomes()
    }

    fn fill(&mut self, _rng: &mut Xoshiro256pp, first_row: usize, mut out: &mut [Draw]) {
        let buf = self.seq.indices();
        // Runs up to the buffer's end, wrapping between them.
        while !out.is_empty() {
            let at = self.cursor % buf.len();
            let (run, rest) = out.split_at_mut(out.len().min(buf.len() - at));
            for (o, &i) in run.iter_mut().zip(&buf[at..]) {
                *o = draw(self, first_row, i as usize);
            }
            self.cursor += run.len();
            out = rest;
        }
    }

    fn correction(&self, i: usize) -> f64 {
        self.corrections.as_ref().map_or(1.0, |c| c[i])
    }

    fn epoch_reset(&mut self) {
        self.seq.advance_epoch();
        self.cursor = 0;
    }

    fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot::Sequence {
            rng: self.seq.rng_state(),
            indices: self.seq.indices().to_vec(),
        }
    }

    fn restore(&mut self, snap: SamplerSnapshot) -> Result<(), SamplingError> {
        match snap {
            SamplerSnapshot::Sequence { rng, indices } => {
                self.seq.restore(rng, indices)?;
                self.cursor = 0;
                Ok(())
            }
            SamplerSnapshot::Adaptive { .. } => Err(SamplingError::SnapshotMismatch {
                expected: "sequence",
            }),
        }
    }
}

/// Adaptive importance sampling over a [`SumTree`].
///
/// Draws from the mixture `p_i = (1−β)·w_i/Σw + β/n` (the partially
/// biased distribution of the paper's Eq. 15 / Needell et al., which
/// keeps corrections bounded by `1/β`), where `w_i` starts at the static
/// importance weight and is re-estimated between epochs as an
/// exponential moving average of observed per-sample importance:
///
/// ```text
/// w_i ← (1−γ)·w_i + γ·obs_i
/// ```
///
/// Feedback accumulates through [`Sampler::update_weight`] as a per-row
/// **maximum** — a row visited `k` times in one window keeps its largest
/// observation, matching the upper-bound observation semantics of
/// Katharopoulos & Fleuret (an importance estimate should not shrink
/// because a later visit happened to land on a flatter model) — and is
/// committed per the sampler's [`CommitPolicy`]: at
/// [`Sampler::epoch_reset`] under [`CommitPolicy::EpochBoundary`] (so a
/// full epoch samples from one fixed distribution, keeping the
/// unbiasedness argument per epoch and the run deterministic under a
/// seed), or additionally after every `k` accepted observations under
/// [`CommitPolicy::EveryK`].
#[derive(Debug, Clone)]
pub struct AdaptiveIsSampler {
    tree: SumTree,
    /// Pending EMA targets observed this window (NaN = no observation);
    /// multi-visit rows accumulate their per-row max.
    pending: Vec<f64>,
    /// Rows with a finite pending observation, in first-observation
    /// order — commits walk this dirty list so an `EveryK` commit costs
    /// O(window), not O(n).
    observed_rows: Vec<u32>,
    /// When pending observations fold into the live distribution.
    commit: CommitPolicy,
    /// Accepted observations since the last commit (drives `EveryK`).
    since_commit: usize,
    /// Observation windows folded so far (the commit version runtimes
    /// surface to show intra-epoch adaptivity actually firing).
    commits: u64,
}

impl AdaptiveIsSampler {
    /// Uniform-mixture floor β.
    const BETA: f64 = 0.2;
    /// EMA step γ for observed weights.
    const GAMMA: f64 = 0.5;

    /// Builds from initial (e.g. static Lipschitz) weights.
    pub fn new(initial_weights: &[f64]) -> Result<Self, SamplingError> {
        let tree = SumTree::new(initial_weights)?;
        Ok(Self {
            pending: vec![f64::NAN; initial_weights.len()],
            observed_rows: Vec::new(),
            tree,
            commit: CommitPolicy::EpochBoundary,
            since_commit: 0,
            commits: 0,
        })
    }

    /// Sets the commit policy (builder-style; default
    /// [`CommitPolicy::EpochBoundary`]).
    pub fn with_commit(mut self, commit: CommitPolicy) -> Self {
        self.commit = commit;
        self
    }

    /// The current mixture probability of outcome `i`.
    pub fn probability(&self, i: usize) -> f64 {
        let n = self.tree.len() as f64;
        (1.0 - Self::BETA) * self.tree.probability(i) + Self::BETA / n
    }

    /// The current raw weight of outcome `i`.
    pub fn weight(&self, i: usize) -> f64 {
        self.tree.weight(i)
    }

    /// The observation of outcome `i` pending in the open window — the
    /// max of the window's [`Sampler::update_weight`] calls — or NaN
    /// when there is none.
    pub fn pending(&self, i: usize) -> f64 {
        self.pending[i]
    }

    /// [`Sampler::fill`] of two or more draws, [`SumTree::GROUP`] at a
    /// time: a group's coins and quantiles are rolled in draw order,
    /// then its tree walks descend together ([`SumTree::sample_each`]).
    /// Kept out of `fill` so a lone draw does not pay for its frame.
    #[inline(never)]
    fn fill_groups(&mut self, rng: &mut Xoshiro256pp, first_row: usize, out: &mut [Draw]) {
        let n = self.tree.len();
        for group in out.chunks_mut(SumTree::GROUP) {
            let mut outcomes = [0usize; SumTree::GROUP];
            let mut quantiles = [0.0; SumTree::GROUP];
            let mut slots = [0usize; SumTree::GROUP];
            let mut walks = 0;
            for (slot, o) in outcomes.iter_mut().take(group.len()).enumerate() {
                if rng.next_f64() < Self::BETA {
                    *o = rng.next_index(n);
                } else {
                    quantiles[walks] = rng.next_f64();
                    slots[walks] = slot;
                    walks += 1;
                }
            }
            let mut leaves = [0usize; SumTree::GROUP];
            self.tree
                .sample_each(&quantiles[..walks], &mut leaves[..walks]);
            for (&slot, &leaf) in slots[..walks].iter().zip(&leaves) {
                outcomes[slot] = leaf;
            }
            for (o, &i) in group.iter_mut().zip(&outcomes) {
                *o = draw(self, first_row, i);
            }
        }
    }

    /// Folds pending observations into the live distribution.
    ///
    /// Observations are normalized to the current mean weight scale so
    /// the EMA mixes comparable magnitudes, floored so every row stays
    /// sampleable (bounding corrections), and blended with retention γ.
    /// An all-zero window (`mean_obs == 0`, e.g. a converged or
    /// zero-gradient epoch) carries no ranking information and leaves the
    /// distribution **unchanged** — scaling observed rows to the floor
    /// while unobserved rows kept their weight would invert the
    /// distribution.
    fn commit_pending(&mut self) {
        self.since_commit = 0;
        if self.observed_rows.is_empty() {
            return;
        }
        self.commits += 1;
        // The fold walks only the dirty list (rows observed this
        // window) and each write touches only its row's ancestors:
        // O(window · log n). The tree stays a pure function of the
        // committed weights, so a checkpoint-restored sampler draws
        // bit-identically to one that lived the whole history.
        let mut rows = std::mem::take(&mut self.observed_rows);
        let mean_w = self.tree.total() / self.tree.len() as f64;
        let sum: f64 = rows.iter().map(|&i| self.pending[i as usize]).sum();
        let mean_obs = sum / rows.len() as f64;
        if mean_obs > 0.0 {
            let scale = mean_w / mean_obs;
            // Floor keeps every row sampleable, bounding corrections.
            let floor = mean_w * 1e-3;
            let pending = &self.pending;
            self.tree
                .reweigh(rows.iter().map(|&i| i as usize), |i, w| {
                    let target = (pending[i] * scale).max(floor);
                    (1.0 - Self::GAMMA) * w + Self::GAMMA * target
                })
                .expect("blended weight is finite and positive");
        }
        // mean_obs == 0 is the degenerate all-zero window: nothing to
        // rank by, so the distribution stays untouched and the window is
        // simply dropped.
        for &i in &rows {
            self.pending[i as usize] = f64::NAN;
        }
        rows.clear();
        self.observed_rows = rows; // keep the allocation
    }
}

impl Sampler for AdaptiveIsSampler {
    fn len(&self) -> usize {
        self.tree.len()
    }

    /// Each draw rolls the β coin, then takes either a uniform index or
    /// a tree quantile — the RNG order of one draw at a time. A lone
    /// draw walks the tree at once (one walk is faster with branches);
    /// more go to `fill_groups`.
    fn fill(&mut self, rng: &mut Xoshiro256pp, first_row: usize, out: &mut [Draw]) {
        if let [one] = out {
            let i = if rng.next_f64() < Self::BETA {
                rng.next_index(self.tree.len())
            } else {
                self.tree.sample(rng)
            };
            *one = draw(self, first_row, i);
            return;
        }
        self.fill_groups(rng, first_row, out);
    }

    fn correction(&self, i: usize) -> f64 {
        1.0 / (self.tree.len() as f64 * self.probability(i))
    }

    fn update_weight(&mut self, i: usize, observed: f64) {
        if observed.is_finite() && observed >= 0.0 {
            // Per-row max across visits in the window; EMA applies at
            // commit. (A plain overwrite would silently drop every
            // observation but the last for multi-visit rows.)
            let prev = self.pending[i];
            if prev.is_finite() {
                self.pending[i] = prev.max(observed);
            } else {
                self.pending[i] = observed;
                self.observed_rows.push(i as u32);
            }
            self.since_commit += 1;
            if let CommitPolicy::EveryK(k) = self.commit {
                if self.since_commit >= k.max(1) {
                    self.commit_pending();
                }
            }
        }
    }

    fn epoch_reset(&mut self) {
        self.commit_pending();
    }

    fn is_adaptive(&self) -> bool {
        true
    }

    fn commit_version(&self) -> u64 {
        self.commits
    }

    fn until_commit(&self) -> Option<usize> {
        match self.commit {
            CommitPolicy::EveryK(k) => Some(k.max(1) - self.since_commit),
            CommitPolicy::EpochBoundary => None,
        }
    }

    fn snapshot(&self) -> SamplerSnapshot {
        SamplerSnapshot::Adaptive {
            weights: self.tree.weights().to_vec(),
            commits: self.commits,
        }
    }

    fn restore(&mut self, snap: SamplerSnapshot) -> Result<(), SamplingError> {
        let (weights, commits) = match snap {
            SamplerSnapshot::Adaptive { weights, commits } => (weights, commits),
            SamplerSnapshot::Sequence { .. } => {
                return Err(SamplingError::SnapshotMismatch {
                    expected: "adaptive",
                })
            }
        };
        if weights.len() != self.tree.len() {
            return Err(SamplingError::LengthMismatch {
                weights: self.tree.len(),
                other: weights.len(),
            });
        }
        // A fresh build validates every weight (finite, non-negative,
        // some mass) before anything is replaced, so a bad snapshot
        // leaves the sampler untouched — and it is the same tree a
        // live sampler holds after its commits.
        self.tree = SumTree::new(&weights)?;
        self.commits = commits;
        self.since_commit = 0;
        for p in &mut self.pending {
            *p = f64::NAN;
        }
        self.observed_rows.clear();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn draws(s: &mut dyn Sampler, rng: &mut Xoshiro256pp, k: usize) -> Vec<usize> {
        let mut out = vec![Draw { row: 0, corr: 0.0 }; k];
        s.fill(rng, 0, &mut out);
        out.iter().map(|d| d.row as usize).collect()
    }

    /// The pre-generated sampler over `n` uniform outcomes.
    fn uniform(n: usize, seed: u64) -> Box<dyn Sampler> {
        let (mode, policy) = (SequenceMode::RegeneratePerEpoch, CommitPolicy::default());
        build_sampler(SamplingStrategy::Uniform, None, n, mode, seed, policy).unwrap()
    }

    /// The pre-generated sampler emitting `len` draws per epoch from `w`.
    fn weighted(w: &[f64], len: usize, mode: SequenceMode, seed: u64) -> Box<dyn Sampler> {
        let policy = CommitPolicy::default();
        build_sampler(SamplingStrategy::Static, Some(w), len, mode, seed, policy).unwrap()
    }

    #[test]
    fn uniform_sampler_covers_and_has_unit_corrections() {
        let mut s = uniform(8, 3);
        let mut rng = Xoshiro256pp::new(0);
        let mut seen = [false; 8];
        for _ in 0..20 {
            for i in draws(s.as_mut(), &mut rng, 8) {
                assert!(i < 8);
                seen[i] = true;
                assert_eq!(s.correction(i), 1.0);
            }
            s.epoch_reset();
        }
        assert!(seen.iter().all(|&x| x));
        assert!(!s.is_adaptive());
    }

    #[test]
    fn static_sampler_matches_its_sequence() {
        let w = [1.0, 3.0, 2.0];
        let mut s = weighted(&w, 64, SequenceMode::RegeneratePerEpoch, 9);
        let reference =
            SampleSequence::weighted(&w, 64, SequenceMode::RegeneratePerEpoch, 9).unwrap();
        let mut rng = Xoshiro256pp::new(1);
        let got = draws(s.as_mut(), &mut rng, 64);
        let expect: Vec<usize> = reference.indices().iter().map(|&i| i as usize).collect();
        assert_eq!(got, expect, "static sampler must replay its sequence");
        assert_eq!(s.correction(1), 2.0 / 3.0, "L̄/L_1");
    }

    #[test]
    fn adaptive_sampler_tracks_observed_importance() {
        // Start uniform; observe that outcome 2 matters 10× more.
        let mut s = AdaptiveIsSampler::new(&[1.0, 1.0, 1.0, 1.0]).unwrap();
        let before = s.probability(2);
        for i in 0..4 {
            s.update_weight(i, if i == 2 { 10.0 } else { 1.0 });
        }
        s.epoch_reset();
        let after = s.probability(2);
        assert!(
            after > 1.5 * before,
            "probability should grow: {before} → {after}"
        );
        // Mixture floor keeps every outcome sampleable.
        for i in 0..4 {
            assert!(s.probability(i) >= AdaptiveIsSampler::BETA / 4.0 - 1e-12);
        }
        // Corrections are 1/(n·p): heavier outcomes step smaller.
        assert!(s.correction(2) < s.correction(0));
        assert!(s.is_adaptive());
    }

    #[test]
    fn adaptive_ema_blends_rather_than_replaces() {
        let mut s = AdaptiveIsSampler::new(&[1.0, 1.0]).unwrap();
        s.update_weight(0, 3.0);
        s.update_weight(1, 1.0);
        s.epoch_reset();
        // γ = 0.5: the heavy outcome moves halfway toward its target, not
        // all the way.
        let (w0, w1) = (s.weight(0), s.weight(1));
        assert!(w0 > w1, "observed-heavier outcome must gain weight");
        assert!(
            w0 / w1 < 3.0,
            "EMA must damp the 3:1 observation, got {w0}/{w1}"
        );
    }

    #[test]
    fn adaptive_keeps_max_of_multi_visit_observations() {
        // A row visited several times per epoch must keep its largest
        // observation (upper-bound semantics), not the last one.
        let mut s = AdaptiveIsSampler::new(&[1.0, 1.0]).unwrap();
        s.update_weight(0, 8.0); // large early observation...
        s.update_weight(0, 0.5); // ...must survive a small later one
        s.update_weight(1, 1.0);
        s.epoch_reset();
        // Targets 8 : 1 about their mean 4.5, blended halfway from 1 : 1
        // — (4.5 + 8) : (4.5 + 1). Had the 0.5 won: (0.75 + 0.5) : 1.75.
        let ratio = s.weight(0) / s.weight(1);
        assert!(
            (ratio - 12.5 / 5.5).abs() < 1e-9,
            "expected the 8.0 observation to win, got ratio {ratio}"
        );
    }

    #[test]
    fn all_zero_epoch_leaves_distribution_unchanged() {
        // Regression: an all-zero observation window used to drive every
        // *observed* row to the floor while unobserved rows kept their
        // weight — inverting the distribution. It must be a no-op.
        let mut s = AdaptiveIsSampler::new(&[4.0, 2.0, 1.0]).unwrap();
        let before: Vec<f64> = (0..3).map(|i| s.weight(i)).collect();
        s.update_weight(0, 0.0);
        s.update_weight(1, 0.0);
        s.epoch_reset();
        let after: Vec<f64> = (0..3).map(|i| s.weight(i)).collect();
        assert_eq!(before, after, "zero-gradient epoch must not re-rank");
        // And the pending window was dropped: the next (informative)
        // epoch starts clean.
        s.update_weight(2, 9.0);
        s.update_weight(0, 1.0);
        s.epoch_reset();
        assert!(s.weight(2) > s.weight(0));
    }

    #[test]
    fn every_k_commits_inside_the_epoch() {
        let mut boundary = AdaptiveIsSampler::new(&[1.0, 1.0]).unwrap();
        let mut every2 = AdaptiveIsSampler::new(&[1.0, 1.0])
            .unwrap()
            .with_commit(CommitPolicy::EveryK(2));
        for s in [&mut boundary, &mut every2] {
            s.update_weight(0, 9.0);
            s.update_weight(1, 1.0);
        }
        // Mid-epoch: the boundary sampler still holds the initial
        // distribution; the every-2 sampler has already committed.
        assert_eq!(boundary.weight(0), boundary.weight(1));
        assert!(
            every2.weight(0) > every2.weight(1),
            "EveryK(2) must fold observations into live weights mid-epoch"
        );
        // Epoch reset converges both to re-ranked weights.
        boundary.epoch_reset();
        every2.epoch_reset();
        assert!(boundary.weight(0) > boundary.weight(1));
    }

    #[test]
    fn commit_version_counts_folded_windows() {
        let mut s = AdaptiveIsSampler::new(&[1.0, 1.0])
            .unwrap()
            .with_commit(CommitPolicy::EveryK(2));
        assert_eq!(s.commit_version(), 0);
        s.update_weight(0, 2.0);
        assert_eq!(s.commit_version(), 0, "window still open");
        s.update_weight(1, 1.0);
        assert_eq!(s.commit_version(), 1, "every-2 commit folded mid-epoch");
        s.update_weight(0, 3.0);
        s.epoch_reset();
        assert_eq!(s.commit_version(), 2, "boundary folds the partial window");
        s.epoch_reset();
        assert_eq!(s.commit_version(), 2, "empty windows are not commits");
        // Non-adaptive samplers never advance.
        let mut u = uniform(4, 0);
        u.epoch_reset();
        assert_eq!(u.commit_version(), 0);
    }

    #[test]
    fn commit_policy_parsing_roundtrip() {
        assert_eq!(
            CommitPolicy::parse("epoch"),
            Some(CommitPolicy::EpochBoundary)
        );
        assert_eq!(
            CommitPolicy::parse("every-k"),
            Some(CommitPolicy::EveryK(CommitPolicy::DEFAULT_EVERY_K))
        );
        assert_eq!(
            CommitPolicy::parse("every-128"),
            Some(CommitPolicy::EveryK(128))
        );
        assert_eq!(CommitPolicy::parse("every-0"), None);
        assert_eq!(CommitPolicy::parse("sometimes"), None);
        assert_eq!(CommitPolicy::EpochBoundary.name(), "epoch");
        assert_eq!(CommitPolicy::EveryK(64).name(), "every-64");
        assert_eq!(CommitPolicy::default(), CommitPolicy::EpochBoundary);
    }

    #[test]
    fn build_sampler_honors_commit_policy() {
        let w = [1.0, 2.0, 3.0];
        let s = build_sampler(
            SamplingStrategy::Adaptive,
            Some(&w),
            3,
            SequenceMode::RegeneratePerEpoch,
            1,
            CommitPolicy::EveryK(7),
        )
        .unwrap();
        assert!(s.is_adaptive());
        // Non-adaptive strategies ignore the policy without error.
        let s = build_sampler(
            SamplingStrategy::Static,
            Some(&w),
            8,
            SequenceMode::RegeneratePerEpoch,
            1,
            CommitPolicy::EveryK(7),
        )
        .unwrap();
        assert!(!s.is_adaptive());
    }

    #[test]
    fn build_sampler_builds_what_each_strategy_and_mode_names() {
        // Every cell of the constructor's table against the object it
        // is documented to wrap: three epochs of draws equal the
        // `SampleSequence` (or, adaptive, the `AdaptiveIsSampler`) walked
        // directly; corrections are `step_corrections(weights)`, 1, or
        // the live `1/(n·p_i)`; and a fresh sampler restored from a
        // boundary snapshot carries on with the same draws.
        let w = [1.0, 3.0, 2.0, 4.0, 0.5, 2.5, 1.5];
        let n = w.len();
        for strategy in [
            SamplingStrategy::Uniform,
            SamplingStrategy::Static,
            SamplingStrategy::Adaptive,
        ] {
            for mode in [SequenceMode::RegeneratePerEpoch, SequenceMode::ShuffleOnce] {
                let cell = format!("{strategy:?}/{mode:?}");
                let build = || {
                    let policy = CommitPolicy::default();
                    build_sampler(strategy, Some(&w), n, mode, 11, policy).unwrap()
                };
                let mut seq = match strategy {
                    SamplingStrategy::Adaptive => None,
                    SamplingStrategy::Static => {
                        Some(SampleSequence::weighted(&w, n, mode, 11).unwrap())
                    }
                    // Uniform draws are i.i.d. under every mode.
                    SamplingStrategy::Uniform => Some(SampleSequence::uniform(n, n, 11).unwrap()),
                };
                let mut live = AdaptiveIsSampler::new(&w).unwrap();
                let (mut rng, mut live_rng) = (Xoshiro256pp::new(5), Xoshiro256pp::new(5));
                let mut s = build();
                assert_eq!(s.len(), n, "{cell}");
                for epoch in 0..3 {
                    let want: Vec<usize> = match &seq {
                        Some(seq) => seq.indices().iter().map(|&i| i as usize).collect(),
                        None => draws(&mut live, &mut live_rng, n),
                    };
                    assert_eq!(draws(s.as_mut(), &mut rng, n), want, "{cell} epoch {epoch}");
                    for i in 0..n {
                        let want = match strategy {
                            SamplingStrategy::Uniform => 1.0,
                            SamplingStrategy::Static => crate::step_corrections(&w)[i],
                            SamplingStrategy::Adaptive => live.correction(i),
                        };
                        assert_eq!(s.correction(i), want, "{cell} correction {i}");
                        // Feedback moves the adaptive cells (so their
                        // restore is not of the initial state) and is
                        // ignored by the pre-generated ones.
                        s.update_weight(i, (i + epoch + 1) as f64);
                        live.update_weight(i, (i + epoch + 1) as f64);
                    }
                    s.epoch_reset();
                    live.epoch_reset();
                    if let Some(seq) = &mut seq {
                        seq.advance_epoch();
                    }
                    let mut fresh = build();
                    fresh.restore(s.snapshot()).unwrap();
                    s = fresh;
                }
                assert_eq!(s.is_adaptive(), strategy == SamplingStrategy::Adaptive);
            }
        }
    }

    #[test]
    fn adaptive_without_feedback_is_stationary() {
        let mut s = AdaptiveIsSampler::new(&[2.0, 1.0]).unwrap();
        let p = s.probability(0);
        s.epoch_reset();
        assert_eq!(s.probability(0), p);
    }

    #[test]
    fn adaptive_ignores_bad_observations() {
        let mut s = AdaptiveIsSampler::new(&[1.0, 1.0]).unwrap();
        s.update_weight(0, f64::NAN);
        s.update_weight(1, -5.0);
        s.epoch_reset();
        assert_eq!(s.weight(0), 1.0);
        assert_eq!(s.weight(1), 1.0);
    }

    #[test]
    fn adaptive_corrections_average_to_one_under_p() {
        let mut s = AdaptiveIsSampler::new(&[4.0, 1.0, 3.0, 2.0]).unwrap();
        for i in 0..4 {
            s.update_weight(i, (i + 1) as f64);
        }
        s.epoch_reset();
        let e: f64 = (0..4).map(|i| s.probability(i) * s.correction(i)).sum();
        assert!((e - 1.0).abs() < 1e-9, "E_p[1/(np)] = {e}");
    }

    #[test]
    fn strategy_parsing() {
        assert_eq!(
            SamplingStrategy::parse("adaptive"),
            Some(SamplingStrategy::Adaptive)
        );
        assert_eq!(
            SamplingStrategy::parse("static"),
            Some(SamplingStrategy::Static)
        );
        assert_eq!(
            SamplingStrategy::parse("uniform"),
            Some(SamplingStrategy::Uniform)
        );
        assert_eq!(SamplingStrategy::parse("magic"), None);
        assert!(SamplingStrategy::Adaptive.uses_importance());
        assert!(!SamplingStrategy::Uniform.uses_importance());
    }

    #[test]
    fn sequence_snapshot_restore_resumes_the_exact_stream() {
        // Run a sampler to a round boundary, snapshot, run on; a fresh
        // sampler restored from the snapshot must replay the identical
        // remaining draw stream (the checkpointed-recovery contract).
        let w = [1.0, 3.0, 2.0, 4.0];
        let mut live = weighted(&w, 16, SequenceMode::RegeneratePerEpoch, 7);
        let mut rng = Xoshiro256pp::new(0);
        draws(live.as_mut(), &mut rng, 16);
        live.epoch_reset();
        let snap = live.snapshot();
        let mut fresh = weighted(&w, 16, SequenceMode::RegeneratePerEpoch, 7);
        fresh.restore(snap).unwrap();
        let mut r1 = Xoshiro256pp::new(1);
        let mut r2 = Xoshiro256pp::new(1);
        for _ in 0..3 {
            assert_eq!(
                draws(live.as_mut(), &mut r1, 16),
                draws(fresh.as_mut(), &mut r2, 16)
            );
            live.epoch_reset();
            fresh.epoch_reset();
        }
    }

    #[test]
    fn adaptive_snapshot_restore_resumes_the_exact_distribution() {
        let w = [1.0, 2.0, 3.0, 4.0];
        let mut live = AdaptiveIsSampler::new(&w)
            .unwrap()
            .with_commit(CommitPolicy::EveryK(2));
        for i in 0..4 {
            live.update_weight(i, (5 - i) as f64);
        }
        live.epoch_reset();
        let snap = live.snapshot();
        let mut fresh = AdaptiveIsSampler::new(&w)
            .unwrap()
            .with_commit(CommitPolicy::EveryK(2));
        fresh.restore(snap).unwrap();
        assert_eq!(fresh.commit_version(), live.commit_version());
        let mut r1 = Xoshiro256pp::new(2);
        let mut r2 = Xoshiro256pp::new(2);
        assert_eq!(
            draws(&mut live, &mut r1, 64),
            draws(&mut fresh, &mut r2, 64)
        );
        for i in 0..4 {
            assert_eq!(live.weight(i), fresh.weight(i));
            assert_eq!(live.correction(i), fresh.correction(i));
        }
    }

    #[test]
    fn commits_and_restores_leave_the_canonical_tree() {
        // Every fold and every restore must leave exactly the tree a
        // fresh build over the same weights produces — bits and total —
        // or a checkpoint-restored worker drifts from a live one.
        let fresh = |s: &AdaptiveIsSampler| {
            let w: Vec<f64> = (0..s.len()).map(|i| s.weight(i)).collect();
            SumTree::new(&w).unwrap()
        };
        let w = [0.1, 0.7, 1.3, 2.9, 0.05, 4.4, 0.33];
        let mut live = AdaptiveIsSampler::new(&w)
            .unwrap()
            .with_commit(CommitPolicy::EveryK(3));
        for t in 0..20usize {
            live.update_weight(t * 5 % 7, 0.25 + (t % 4) as f64);
            assert_eq!(live.tree, fresh(&live), "after observation {t}");
        }
        live.epoch_reset();
        assert_eq!(live.tree, fresh(&live));
        assert!(
            live.commit_version() > 6,
            "every-3 commits fired mid-window"
        );
        let mut restored = AdaptiveIsSampler::new(&w).unwrap();
        restored.restore(live.snapshot()).unwrap();
        assert_eq!(restored.tree, live.tree);
    }

    #[test]
    fn every_k_is_refused_for_samplers_that_ignore_feedback() {
        let every = CommitPolicy::EveryK(8);
        for strategy in [SamplingStrategy::Uniform, SamplingStrategy::Static] {
            let msg = every.check_strategy(strategy).unwrap_err().to_string();
            assert!(msg.contains("every-8") && msg.contains("adaptive"), "{msg}");
            assert!(CommitPolicy::EpochBoundary.check_strategy(strategy).is_ok());
        }
        assert!(every.check_strategy(SamplingStrategy::Adaptive).is_ok());
    }

    #[test]
    fn snapshot_restore_rejects_mismatches() {
        let mut seq = uniform(4, 0);
        let mut ada = AdaptiveIsSampler::new(&[1.0, 1.0]).unwrap();
        assert!(matches!(
            seq.restore(ada.snapshot()),
            Err(SamplingError::SnapshotMismatch { .. })
        ));
        assert!(matches!(
            ada.restore(seq.snapshot()),
            Err(SamplingError::SnapshotMismatch { .. })
        ));
        // Wrong shard length.
        assert!(matches!(
            ada.restore(SamplerSnapshot::Adaptive {
                weights: vec![1.0; 3],
                commits: 0,
            }),
            Err(SamplingError::LengthMismatch { .. })
        ));
        // Invalid weights leave the sampler untouched.
        let before = (ada.weight(0), ada.weight(1));
        assert!(matches!(
            ada.restore(SamplerSnapshot::Adaptive {
                weights: vec![1.0, f64::NAN],
                commits: 9,
            }),
            Err(SamplingError::InvalidWeight { index: 1, .. })
        ));
        assert!(matches!(
            ada.restore(SamplerSnapshot::Adaptive {
                weights: vec![0.0, 0.0],
                commits: 9,
            }),
            Err(SamplingError::ZeroMass)
        ));
        assert_eq!((ada.weight(0), ada.weight(1)), before);
        assert_eq!(ada.commit_version(), 0);
        // Wrong sequence length.
        assert!(matches!(
            seq.restore(SamplerSnapshot::Sequence {
                rng: [1, 2, 3, 4],
                indices: vec![0; 9],
            }),
            Err(SamplingError::LengthMismatch { .. })
        ));
    }

    #[test]
    fn boxed_samplers_are_object_safe() {
        let mut boxed: Vec<Box<dyn Sampler>> = vec![
            uniform(4, 0),
            weighted(&[1.0, 2.0], 8, SequenceMode::ShuffleOnce, 1),
            Box::new(AdaptiveIsSampler::new(&[1.0, 1.0, 1.0]).unwrap()),
        ];
        let mut rng = Xoshiro256pp::new(5);
        for s in boxed.iter_mut() {
            let i = draws(s.as_mut(), &mut rng, 1)[0];
            assert!(i < s.len());
            s.epoch_reset();
        }
    }
}
