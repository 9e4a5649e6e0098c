//! The [`ScheduleStream`]: one worker of a sharded run — its shard's
//! sampler, its private draw RNG, and the feedback loop back into that
//! sampler.
//!
//! The paper's Algorithms 2 and 4 define a worker as nothing more than
//! "its shard, its importance weights, its index stream", with the SGD
//! kernel left untouched. This module is that definition in code, and
//! the only place it is written down: [`ScheduleStream::for_shard`]
//! builds worker `k` of `K` for every runtime (the `isasgd-core` engine's
//! sequential, simulated and threaded arms and `isasgd-cluster` nodes),
//! so two runtimes given the same master seed and shard layout cannot
//! disagree on a seed, a sampler or a scaling convention.
//!
//! **Draws** are pulled in bounded chunks and never materialized per
//! epoch: memory is `O(chunk)` per worker, and every chunk is drawn from
//! the sampler's *current* distribution, so a mid-epoch re-weight
//! ([`CommitPolicy::EveryK`]) is visible to the very next chunk.
//! [`ShardStepper`] is the one loop that pulls and steps them, on every
//! runtime, and no pull of it spans a possible commit. Only the
//! owning stream consumes its RNG, so thread scheduling cannot perturb a
//! worker's RNG sequence; the draw sequence itself is bit-deterministic
//! whenever the observations feeding the sampler are (always, except
//! multi-worker adaptive Hogwild runs, whose racy model reads make
//! observed values — and thus committed weights — run-varying).
//!
//! **Feedback** is [`ScheduleStream::observe`]. Training kernels report
//! the raw gradient scale `|ℓ'(m)|` of each visited row — the only
//! quantity they compute anyway — and the stream owns everything
//! downstream: the feature norms `‖x_i‖` of *its own* rows (computed
//! once at construction, adaptive streams only), which turn a raw scale
//! into the per-sample gradient norm `|ℓ'(m)|·‖x_i‖` the sampler is fed,
//! and the rejection of rows another shard owns. Per-row accumulation
//! (max across visits) and *when* observations become visible to draws
//! ([`CommitPolicy`]) live in the sampler. Worker shards are disjoint, so
//! a worker only ever observes rows its own sampler owns — adaptivity
//! needs no cross-thread coordination beyond the epoch barrier.

use crate::error::SamplingError;
use crate::rng::{derive_seeds, Xoshiro256pp};
use crate::sampler::{build_sampler, CommitPolicy, Sampler, SamplingStrategy};
use crate::sequence::SequenceMode;
use isasgd_sparse::{Dataset, RowWindow, SparseRow};
use std::ops::Range;

/// Salt folded into the master seed to derive per-shard *draw* RNGs,
/// kept distinct from the sequence-generation seeds.
const DRAW_STREAM_SALT: u64 = 0xADA9_715E_5EED_0001;

/// The seed of a `shards`-worker run's balancing / shuffling
/// permutation: the last of the `shards + 1` seeds derived from the
/// master seed, whose first `shards` entries seed the shards'
/// pre-generated sequences (the rest of the layout is
/// [`ScheduleStream::for_shard`]'s).
pub fn balance_seed(master: u64, shards: usize) -> u64 {
    derive_seeds(master, shards + 1)[shards]
}

/// One scheduled draw: a global row index plus its importance-sampling
/// step correction `1/(n·p)` under the distribution *at draw time*
/// (1.0 for uniform sampling).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Draw {
    /// Global row index into the (rearranged) dataset.
    pub row: u32,
    /// Step correction for this draw.
    pub corr: f64,
}

/// What defines worker `shard` of a `shards`-worker run, apart from
/// its rows' feature norms (passed to [`ScheduleStream::for_shard`]
/// beside this, lazily).
#[derive(Debug, Clone)]
pub struct ShardSpec<'a> {
    /// This worker's shard index `k`…
    pub shard: usize,
    /// …of `K` shards; with `seed` it fixes every seed the stream uses.
    pub shards: usize,
    /// The run's master seed.
    pub seed: u64,
    /// The shard's rows, as global indices into the rearranged dataset;
    /// draws carry these.
    pub range: Range<usize>,
    /// The distribution the shard draws from.
    pub strategy: SamplingStrategy,
    /// The importance weight of each row of `range`, in order; `None`
    /// (or a strategy that ignores importance) samples uniformly.
    pub weights: Option<&'a [f64]>,
    /// How pre-generated sequences refresh between epochs.
    pub sequence: SequenceMode,
    /// When an adaptive sampler folds its observations.
    pub commit: CommitPolicy,
}

/// One worker of a sharded run: the single draw and feedback mechanism
/// shared by every execution path (see the module docs).
pub struct ScheduleStream {
    sampler: Box<dyn Sampler>,
    rng: Xoshiro256pp,
    /// Global-row offset of the shard (local index 0 maps here).
    start: usize,
    /// Draws per epoch (the shard length, by the paper's convention).
    epoch_len: usize,
    /// Draws already emitted this epoch.
    emitted: usize,
    /// Feature norms `‖x_i‖` of the shard's own rows, by local index;
    /// empty unless the sampler adapts, which is also what makes
    /// [`ScheduleStream::observe`] a no-op on the other strategies.
    norms: Vec<f64>,
}

impl std::fmt::Debug for ScheduleStream {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleStream")
            .field("start", &self.start)
            .field("epoch_len", &self.epoch_len)
            .field("emitted", &self.emitted)
            .finish()
    }
}

impl ScheduleStream {
    /// Draws a pull of a distribution frozen until the epoch ends takes:
    /// large enough to amortize per-chunk bookkeeping, small enough that
    /// per-worker buffers stay cache-resident and `O(1)` in `n`.
    pub const DEFAULT_CHUNK: usize = 1024;

    /// Builds worker `spec.shard`: its sampler (sequence seed
    /// `derive_seeds(seed, K + 1)[k]`), its private draw RNG (seed
    /// `derive_seeds(seed ^ salt, K)[k]`; pre-generated samplers carry
    /// their own stream and ignore it) and, when the sampler adapts,
    /// the norms of its rows. `norms_sq` yields `‖x_i‖²` for each row of
    /// `spec.range` in order and is consumed only by adaptive streams.
    ///
    /// This is the only recipe: a core worker and a cluster node built
    /// from equal specs draw identical streams, which is what the
    /// core↔cluster equivalence tests pin.
    pub fn for_shard(
        spec: ShardSpec<'_>,
        norms_sq: impl IntoIterator<Item = f64>,
    ) -> Result<Self, SamplingError> {
        let (shard, shards, rows) = (spec.shard, spec.shards, spec.range.len());
        if shard >= shards {
            return Err(SamplingError::ShardOutOfRange { shard, shards });
        }
        // One weight per row always, one norm per row when kept.
        let covers = |len: usize| {
            if len == rows {
                return Ok(());
            }
            Err(SamplingError::LengthMismatch {
                weights: rows,
                other: len,
            })
        };
        if let Some(w) = spec.weights {
            covers(w.len())?;
        }
        let sequence_seed = derive_seeds(spec.seed, shards + 1)[shard];
        let draw_seed = derive_seeds(spec.seed ^ DRAW_STREAM_SALT, shards)[shard];
        let sampler = build_sampler(
            spec.strategy,
            spec.weights,
            rows,
            spec.sequence,
            sequence_seed,
            spec.commit,
        )?;
        let mut norms = Vec::new();
        if sampler.is_adaptive() {
            norms.extend(norms_sq.into_iter().map(f64::sqrt));
            covers(norms.len())?;
        }
        Ok(ScheduleStream {
            sampler,
            rng: Xoshiro256pp::new(draw_seed),
            start: spec.range.start,
            epoch_len: rows,
            emitted: 0,
            norms,
        })
    }

    /// The shard's rows (global indices): what draws carry and what
    /// [`ScheduleStream::observe`] accepts.
    pub fn range(&self) -> Range<usize> {
        self.start..self.start + self.epoch_len
    }

    /// Draws emitted per epoch.
    pub fn epoch_len(&self) -> usize {
        self.epoch_len
    }

    /// Draws left in the current epoch.
    pub fn remaining(&self) -> usize {
        self.epoch_len - self.emitted
    }

    /// Clears `buf` and refills it with up to `chunk` draws (bounded by
    /// the epoch remainder); returns the number drawn. Draws within one
    /// chunk share the distribution in force when the chunk was pulled,
    /// so a chunk that spans a commit draws past it from a stale one;
    /// [`ShardStepper`] sizes its pulls so that none does.
    pub fn fill_chunk(&mut self, buf: &mut Vec<Draw>, chunk: usize) -> usize {
        buf.clear();
        let take = chunk.min(self.remaining());
        buf.resize(take, Draw { row: 0, corr: 0.0 });
        self.sampler.fill(&mut self.rng, self.start, buf);
        self.emitted += take;
        take
    }

    /// Feeds one observed gradient scale `|ℓ'(m)|` for global row `row`
    /// back into this stream's sampler as the row's gradient norm
    /// `|ℓ'(m)|·‖x_i‖`, and returns that observation.
    ///
    /// Returns `None`, without touching the sampler, for a row this
    /// shard does not own and on streams whose sampler does not adapt.
    pub fn observe(&mut self, row: usize, grad_scale: f64) -> Option<f64> {
        let local = row.checked_sub(self.start)?;
        let observed = grad_scale * *self.norms.get(local)?;
        self.sampler.update_weight(local, observed);
        Some(observed)
    }

    /// Read access to the underlying sampler.
    pub fn sampler(&self) -> &dyn Sampler {
        self.sampler.as_ref()
    }

    /// Mutable access to the underlying sampler (checkpoint restore).
    pub fn sampler_mut(&mut self) -> &mut dyn Sampler {
        self.sampler.as_mut()
    }

    /// Number of observation windows the sampler has folded into its
    /// live distribution so far (see [`Sampler::commit_version`]).
    pub fn commit_version(&self) -> u64 {
        self.sampler.commit_version()
    }

    /// The draw RNG state, for worker checkpoints (paired with a
    /// [`Sampler::snapshot`] of the sampler).
    pub fn rng_state(&self) -> [u64; 4] {
        self.rng.state()
    }

    /// Restores the draw RNG stream from a checkpointed state.
    pub fn set_rng_state(&mut self, s: [u64; 4]) {
        self.rng = Xoshiro256pp::from_state(s);
    }

    /// Epoch barrier: commits adaptive re-weighting / refreshes
    /// pre-generated sequences and rewinds the draw counter.
    pub fn epoch_reset(&mut self) {
        self.sampler.epoch_reset();
        self.emitted = 0;
    }
}

/// One shard's step loop, the same on every runtime: it pulls the
/// shard's draws from its [`ScheduleStream`], hands each draw and its
/// row to the caller's step, and routes the `|ℓ'(m)|` the step returns
/// to [`ScheduleStream::observe`] (adaptive streams only; the check is
/// made once per epoch, so other streams pay nothing per step).
///
/// **One pull rule: no pull spans a commit.** Draws within one pull
/// share the distribution in force when it was pulled, so a pull takes
/// at most the observations left before the sampler's next possible
/// commit ([`Sampler::until_commit`]): all of them when each draw's
/// observation reaches the stream right after its step
/// ([`ShardStepper::epoch`]), one when the caller delivers it later
/// ([`ShardStepper::next_draw`]). A distribution frozen until the epoch
/// ends is pulled [`ScheduleStream::DEFAULT_CHUNK`] draws at a time.
/// Pull lengths never change which draws a stream makes, only when.
///
/// **Steps read gathered rows.** [`ShardStepper::epoch`] walks each
/// pull through the stepper's [`RowWindow`], so a step reads a copy of
/// its row gathered with the next [`RowWindow::ROWS`] draws' rows (a
/// lone draw is read in place), bit for bit what the dataset holds.
///
/// Build one per shard, once per run, before the run's working set (see
/// [`RowWindow::with_row_capacity`] for why not on per-epoch threads).
/// `bill` arguments run each pull of a frozen distribution, so that a
/// caller can clock them apart (`|pull| pull()` runs it bare).
#[derive(Debug)]
pub struct ShardStepper {
    draws: Vec<Draw>,
    /// Draws of `draws` already handed out by [`ShardStepper::next_draw`].
    taken: usize,
    window: RowWindow,
}

impl ShardStepper {
    /// A stepper over rows of up to `row_nnz` non-zeros
    /// ([`Dataset::max_row_nnz`] of the rows it steps).
    pub fn new(row_nnz: usize) -> Self {
        ShardStepper {
            draws: Vec::with_capacity(ScheduleStream::DEFAULT_CHUNK),
            taken: 0,
            window: RowWindow::with_row_capacity(row_nnz),
        }
    }

    /// Refills the draw buffer from `stream` by the pull rule (one draw
    /// while a commit can land, if `delayed`); false when the epoch has
    /// no draws left.
    fn pull(
        &mut self,
        stream: &mut ScheduleStream,
        delayed: bool,
        mut bill: impl FnMut(&mut dyn FnMut()),
    ) -> bool {
        if stream.remaining() == 0 {
            return false;
        }
        let (draws, chunk) = (&mut self.draws, ScheduleStream::DEFAULT_CHUNK);
        match stream.sampler().until_commit() {
            Some(_) if delayed => _ = stream.fill_chunk(draws, 1),
            Some(left) => _ = stream.fill_chunk(draws, left.min(chunk)),
            None => bill(&mut || _ = stream.fill_chunk(draws, chunk)),
        }
        self.taken = 0;
        true
    }

    /// Steps the rest of `stream`'s epoch: `step` gets each draw and its
    /// row (storage row `draw.row - row_base` of `rows`) and returns the
    /// row's gradient scale `|ℓ'(m)|`, which goes to
    /// [`ScheduleStream::observe`]; `seen` gets each observation the
    /// stream accepts, as its global row and gradient norm.
    pub fn epoch(
        &mut self,
        stream: &mut ScheduleStream,
        rows: &Dataset,
        row_base: usize,
        mut bill: impl FnMut(&mut dyn FnMut()),
        mut step: impl FnMut(Draw, &SparseRow<'_>) -> f64,
        mut seen: impl FnMut(usize, f64),
    ) {
        let adaptive = stream.sampler().is_adaptive();
        while self.pull(stream, false, &mut bill) {
            let row_of = |d: &Draw| d.row as usize - row_base;
            self.window.walk(rows, &self.draws, row_of, |&d, row| {
                let g = step(d, row);
                if adaptive {
                    if let Some(observed) = stream.observe(d.row as usize, g) {
                        seen(d.row as usize, observed);
                    }
                }
            });
        }
    }

    /// The next draw of `stream`'s epoch, or `None` once the epoch has
    /// none left, for a caller that steps the draw and delivers its
    /// observation itself, later (at most one draw is pulled ahead while
    /// a commit can land).
    pub fn next_draw(
        &mut self,
        stream: &mut ScheduleStream,
        bill: impl FnMut(&mut dyn FnMut()),
    ) -> Option<Draw> {
        if self.taken == self.draws.len() && !self.pull(stream, true, bill) {
            return None;
        }
        self.taken += 1;
        self.draws.get(self.taken - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::AdaptiveIsSampler;

    /// Shard `shard` of two over rows `range`, unit weights.
    fn spec(shard: usize, range: Range<usize>, strategy: SamplingStrategy) -> ShardSpec<'static> {
        const ONES: [f64; 10] = [1.0; 10];
        ShardSpec {
            shard,
            shards: 2,
            seed: 9,
            weights: Some(&ONES[..range.len()]),
            range,
            strategy,
            sequence: SequenceMode::RegeneratePerEpoch,
            commit: CommitPolicy::EpochBoundary,
        }
    }

    /// An adaptive stream over shard 1 (rows 3..6, `‖x‖` = 4, 5, 6).
    fn adaptive_stream(commit: CommitPolicy) -> ScheduleStream {
        let spec = ShardSpec {
            commit,
            ..spec(1, 3..6, SamplingStrategy::Adaptive)
        };
        ScheduleStream::for_shard(spec, [16.0, 25.0, 36.0]).unwrap()
    }

    fn uniform_stream() -> ScheduleStream {
        ScheduleStream::for_shard(spec(0, 5..15, SamplingStrategy::Uniform), []).unwrap()
    }

    /// The epoch's remaining draws, pulled one at a time.
    fn drain(s: &mut ScheduleStream) -> Vec<Draw> {
        let (mut all, mut one) = (Vec::new(), Vec::new());
        while s.fill_chunk(&mut one, 1) > 0 {
            all.extend_from_slice(&one);
        }
        all
    }

    fn corrections(s: &dyn Sampler) -> Vec<f64> {
        (0..s.len()).map(|i| s.correction(i)).collect()
    }

    /// Draws as their rows and correction bits, then the draw RNG's
    /// final state.
    type Drawn = (Vec<(u32, u64)>, [u64; 4]);

    /// The observed gradient scale of `row` in `epoch` the pull tests
    /// feed back.
    fn scale(row: u32, epoch: u32) -> f64 {
        0.25 + f64::from(row % 7 + epoch)
    }

    /// 2 000 rows standing for global rows 40..2040: storage row `i`
    /// holds feature `i % 5`, so a step can tell which row it was given.
    fn shard_rows() -> Dataset {
        let mut b = isasgd_sparse::DatasetBuilder::new(5);
        for i in 0..2000u32 {
            b.push_row(&[(i % 5, 1.0)], 1.0).unwrap();
        }
        b.finish()
    }

    /// Three epochs of `stream` stepped by a [`ShardStepper`] over
    /// [`shard_rows`], each draw's observation `observe(row, epoch)`
    /// routed by the stepper; with the number of pulls it billed.
    fn stepped(mut stream: ScheduleStream, observe: impl Fn(u32, u32) -> f64) -> (Drawn, usize) {
        let (rows, mut stepper) = (shard_rows(), ShardStepper::new(1));
        let (mut all, mut billed) = (Vec::new(), 0);
        for epoch in 0..3 {
            let bill = |pull: &mut dyn FnMut()| {
                billed += 1;
                pull();
            };
            let step = |d: Draw, row: &SparseRow<'_>| {
                assert_eq!(row.indices, [(d.row - 40) % 5], "storage row of {}", d.row);
                all.push((d.row, d.corr.to_bits()));
                observe(d.row, epoch)
            };
            stepper.epoch(&mut stream, &rows, 40, bill, step, |_, _| {});
            stream.epoch_reset();
        }
        ((all, stream.rng_state()), billed)
    }

    /// Three epochs of `stream` in pulls of one draw, each observed
    /// with `observe(row, epoch)` before the next pull: through
    /// [`ShardStepper::next_draw`], or by hand.
    fn one_at_a_time(
        mut stream: ScheduleStream,
        observe: impl Fn(u32, u32) -> f64,
        next_draw: bool,
    ) -> Drawn {
        let (mut all, mut one, mut stepper) = (Vec::new(), Vec::new(), ShardStepper::new(0));
        for epoch in 0..3 {
            loop {
                let d = if next_draw {
                    stepper.next_draw(&mut stream, |pull| pull())
                } else {
                    stream.fill_chunk(&mut one, 1);
                    one.first().copied()
                };
                let Some(d) = d else { break };
                all.push((d.row, d.corr.to_bits()));
                stream.observe(d.row as usize, observe(d.row, epoch));
            }
            stream.epoch_reset();
        }
        (all, stream.rng_state())
    }

    /// Three epochs of `stream`, in pulls of `chunk` draws — or of one
    /// draw, `chunk` times — each `chunk` draws fed back as observations
    /// once drawn (so `EveryK` commits land between them): every draw as
    /// its row and correction bits, then the draw RNG's final state.
    fn pulled(mut stream: ScheduleStream, chunk: usize, one_by_one: bool) -> Drawn {
        let (mut all, mut buf, mut one) = (Vec::new(), Vec::new(), Vec::new());
        for epoch in 0..3 {
            while stream.remaining() > 0 {
                if one_by_one {
                    buf.clear();
                    for _ in 0..chunk {
                        stream.fill_chunk(&mut one, 1);
                        buf.extend_from_slice(&one);
                    }
                } else {
                    stream.fill_chunk(&mut buf, chunk);
                }
                for d in &buf {
                    all.push((d.row, d.corr.to_bits()));
                    stream.observe(d.row as usize, scale(d.row, epoch));
                }
            }
            stream.epoch_reset();
        }
        (all, stream.rng_state())
    }

    #[test]
    fn chunked_draws_match_one_by_one_draws() {
        let mut a = uniform_stream();
        let mut b = uniform_stream();
        let mut chunked = Vec::new();
        let mut buf = Vec::new();
        while a.fill_chunk(&mut buf, 3) > 0 {
            chunked.extend_from_slice(&buf);
        }
        let single = drain(&mut b);
        assert_eq!(chunked, single);
        assert_eq!(chunked.len(), 10);
        assert!(chunked.iter().all(|d| (5..15).contains(&(d.row as usize))));
        assert_eq!((a.remaining(), b.remaining()), (0, 0));
        assert_eq!(a.fill_chunk(&mut buf, 3), 0, "exhausted stream stays dry");

        // Adaptive streams: a pull of `chunk` draws is that many pulls
        // of one — rows, correction bits and the RNG left behind — with
        // observations fed back after each `chunk` draws either way. The
        // shard has 2 000 rows (a tree of 2 048 leaves), every fifth
        // weightless, so pulls span several descent groups and end in
        // partial ones.
        let weights: Vec<f64> = (0..2000)
            .map(|i| {
                if i % 5 == 0 {
                    0.0
                } else {
                    0.1 + f64::from(i % 13)
                }
            })
            .collect();
        for commit in [CommitPolicy::EpochBoundary, CommitPolicy::EveryK(5)] {
            let stream = || {
                let spec = ShardSpec {
                    weights: Some(&weights),
                    range: 40..2040,
                    commit,
                    ..spec(1, 0..0, SamplingStrategy::Adaptive)
                };
                ScheduleStream::for_shard(spec, (0..2000).map(|i| f64::from(i % 3 + 1))).unwrap()
            };
            for chunk in [1, 7, 16, 32, 1024] {
                assert_eq!(
                    pulled(stream(), chunk, false),
                    pulled(stream(), chunk, true),
                    "{commit:?}, chunks of {chunk}"
                );
            }
            // The stepper, observing each draw after its step, and its
            // draw-at-a-time path: one-draw pulls, whatever it pulls. A
            // frozen distribution's pulls (2 an epoch) are billed; a
            // pull that precedes a commit is not.
            let (steps, billed) = stepped(stream(), scale);
            assert_eq!(steps, pulled(stream(), 1, false), "{commit:?}, stepper");
            let want_billed = if commit == CommitPolicy::EpochBoundary {
                6
            } else {
                0
            };
            assert_eq!(billed, want_billed, "{commit:?}");
            assert_eq!(
                one_at_a_time(stream(), scale, true),
                pulled(stream(), 1, false),
                "{commit:?}, next_draw"
            );
        }
    }

    /// A refused observation (a NaN scale) does not count toward an
    /// `EveryK` commit, so the commit lands later than `k` draws after
    /// the last one: the stepper still pulls no draw across it, and
    /// draws exactly what one-draw pulls with an observation after each
    /// draw make. A stepper pulling plain `k`-strides draws past the
    /// commit from the stale distribution, and fails here.
    #[test]
    fn no_pull_spans_a_commit_when_observations_are_refused() {
        let weights: Vec<f64> = (0..2000).map(|i| 0.5 + f64::from(i % 11)).collect();
        let stream = || {
            let spec = ShardSpec {
                weights: Some(&weights),
                range: 40..2040,
                commit: CommitPolicy::EveryK(5),
                ..spec(1, 0..0, SamplingStrategy::Adaptive)
            };
            ScheduleStream::for_shard(spec, (0..2000).map(|i| f64::from(i % 3 + 1))).unwrap()
        };
        let observe = |row: u32, epoch: u32| {
            if (row + epoch).is_multiple_of(3) {
                f64::NAN
            } else {
                scale(row, epoch)
            }
        };
        let (steps, billed) = stepped(stream(), observe);
        let by_hand = one_at_a_time(stream(), observe, false);
        assert_eq!(steps, by_hand);
        assert_eq!(billed, 0);
        assert_eq!(one_at_a_time(stream(), observe, true), by_hand, "next_draw");
    }

    #[test]
    fn epoch_reset_rewinds_and_advances_the_sequence() {
        let mut s = uniform_stream();
        let mut buf = Vec::new();
        s.fill_chunk(&mut buf, 10);
        let first = buf.clone();
        assert_eq!(s.remaining(), 0);
        s.epoch_reset();
        assert_eq!(s.remaining(), 10);
        s.fill_chunk(&mut buf, 10);
        assert_ne!(first, buf, "next epoch draws a fresh sequence");
    }

    #[test]
    fn seeds_follow_the_layout_and_nothing_else() {
        // Same spec ⇒ same draws, for the sequence seed (static) and the
        // draw RNG (adaptive) alike; another master seed or another
        // shard index of the same run ⇒ different draws.
        for strategy in [SamplingStrategy::Static, SamplingStrategy::Adaptive] {
            let draws = |seed: u64, shard: usize| {
                let spec = ShardSpec {
                    seed,
                    ..spec(shard, 0..8, strategy)
                };
                drain(&mut ScheduleStream::for_shard(spec, [1.0; 8]).unwrap())
            };
            assert_eq!(draws(7, 0), draws(7, 0), "{strategy:?}");
            assert_ne!(draws(7, 0), draws(8, 0), "{strategy:?}: master seed");
            assert_ne!(draws(7, 0), draws(7, 1), "{strategy:?}: shard index");
        }
        // The balancing seed is the layout's last sequence seed.
        assert_eq!(balance_seed(7, 2), derive_seeds(7, 3)[2]);
        assert_ne!(balance_seed(7, 2), balance_seed(7, 3));
    }

    #[test]
    fn a_shard_the_run_does_not_have_is_a_typed_error() {
        for shard in [2, 3, usize::MAX] {
            let got = ScheduleStream::for_shard(spec(shard, 0..4, SamplingStrategy::Static), []);
            assert_eq!(
                got.unwrap_err(),
                SamplingError::ShardOutOfRange { shard, shards: 2 }
            );
        }
    }

    #[test]
    fn weights_and_norms_must_cover_the_range() {
        let short = ShardSpec {
            weights: Some(&[1.0; 3]),
            ..spec(0, 0..4, SamplingStrategy::Static)
        };
        assert_eq!(
            ScheduleStream::for_shard(short, []).unwrap_err(),
            SamplingError::LengthMismatch {
                weights: 4,
                other: 3
            }
        );
        let adaptive = spec(0, 0..4, SamplingStrategy::Adaptive);
        assert_eq!(
            ScheduleStream::for_shard(adaptive.clone(), [1.0; 3]).unwrap_err(),
            SamplingError::LengthMismatch {
                weights: 4,
                other: 3
            }
        );
        assert!(ScheduleStream::for_shard(adaptive, [1.0; 4]).is_ok());
        // No weights: uniform draws, whatever the strategy asked for.
        let unweighted = ShardSpec {
            weights: None,
            ..spec(0, 0..4, SamplingStrategy::Static)
        };
        let mut s = ScheduleStream::for_shard(unweighted, []).unwrap();
        assert!(drain(&mut s).iter().all(|d| d.corr == 1.0));
        // Strategies that ignore feedback never look at the norms.
        let fixed = spec(0, 0..4, SamplingStrategy::Static);
        assert!(ScheduleStream::for_shard(fixed, std::iter::repeat(f64::NAN)).is_ok());
    }

    #[test]
    fn observations_are_gradient_norms() {
        let mut s = adaptive_stream(CommitPolicy::EpochBoundary);
        assert_eq!(s.observe(3, 2.0), Some(8.0));
        assert_eq!(s.observe(4, 2.0), Some(10.0));
        assert_eq!(s.observe(5, 0.5), Some(3.0));
    }

    #[test]
    fn rows_of_other_shards_never_reach_the_sampler() {
        // Regression: a row past the last shard used to index the shard
        // table out of bounds. Anything outside this stream's own range
        // is refused, and the sampler stays exactly as it was.
        let mut s = adaptive_stream(CommitPolicy::EveryK(1));
        let before = corrections(s.sampler());
        for row in [0, 2, 6, 400, usize::MAX] {
            assert_eq!(s.observe(row, 5.0), None, "row {row}");
        }
        assert_eq!(s.commit_version(), 0, "nothing was observed");
        assert_eq!(corrections(s.sampler()), before);
        // Streams whose sampler ignores feedback refuse their own rows
        // too: there is nothing to scale with and nothing to feed.
        let mut fixed =
            ScheduleStream::for_shard(spec(1, 3..6, SamplingStrategy::Static), []).unwrap();
        assert_eq!(fixed.observe(4, 5.0), None);
    }

    /// The routing pin: offering a mixed observation stream to both
    /// shards' streams lands every row on exactly its owner, with the
    /// per-row max across visits and the trajectory of direct sampler
    /// updates fed the hand-scaled values.
    #[test]
    fn streamed_observations_match_direct_updates() {
        let mut streams: Vec<ScheduleStream> = [0..3, 3..6]
            .into_iter()
            .enumerate()
            .map(|(k, r)| {
                let spec = spec(k, r.clone(), SamplingStrategy::Adaptive);
                let norms_sq = r.map(|i| ((i + 1) * (i + 1)) as f64);
                ScheduleStream::for_shard(spec, norms_sq).unwrap()
            })
            .collect();
        let mut direct = [
            AdaptiveIsSampler::new(&[1.0; 3]).unwrap(),
            AdaptiveIsSampler::new(&[1.0; 3]).unwrap(),
        ];
        for epoch in 0..3usize {
            // 12 observations over 6 rows: every row is visited twice.
            for t in 0..12usize {
                let (row, g) = ((t * 5 + epoch) % 6, 0.25 + ((t + epoch) % 4) as f64);
                let want = g * (row + 1) as f64;
                let got: Vec<_> = streams.iter_mut().map(|s| s.observe(row, g)).collect();
                let owner = row / 3;
                assert_eq!(got[owner], Some(want), "row {row}");
                assert_eq!(got[1 - owner], None, "row {row}");
                direct[owner].update_weight(row % 3, want);
            }
            for (s, d) in streams.iter_mut().zip(&mut direct) {
                s.epoch_reset();
                d.epoch_reset();
                assert_eq!(corrections(s.sampler()), corrections(d), "epoch {epoch}");
            }
        }
    }

    #[test]
    fn a_row_keeps_its_largest_observation_of_the_window() {
        let mut twice = adaptive_stream(CommitPolicy::EpochBoundary);
        let mut once = adaptive_stream(CommitPolicy::EpochBoundary);
        twice.observe(3, 8.0); // large early observation...
        twice.observe(3, 0.5); // ...must survive a small later one
        once.observe(3, 8.0);
        for s in [&mut twice, &mut once] {
            s.observe(4, 1.0);
            s.epoch_reset();
        }
        assert_eq!(corrections(twice.sampler()), corrections(once.sampler()));
    }

    #[test]
    fn observe_adapts_the_streams_own_sampler_mid_epoch() {
        // An every-2 sampler: two observations commit without an epoch
        // boundary, and subsequent corrections reflect the re-weighting.
        let mut s = adaptive_stream(CommitPolicy::EveryK(2));
        assert_eq!(s.commit_version(), 0);
        assert!(s.observe(3, 9.0).is_some());
        assert!(s.observe(4, 1.0).is_some());
        assert_eq!(s.commit_version(), 1, "every-2 commit landed mid-epoch");
        let heavy = s.sampler().correction(0);
        let light = s.sampler().correction(1);
        assert!(heavy < light, "observed-heavier row steps smaller");
    }

    #[test]
    fn streams_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ScheduleStream>();
    }
}
