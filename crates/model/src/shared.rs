//! The atomic parameter vector.

use std::sync::atomic::{AtomicU64, Ordering};

/// A shared, lock-free `f64` parameter vector of fixed dimensionality.
///
/// All coordinate operations use `Relaxed` ordering: Hogwild's correctness
/// argument is statistical (bounded staleness), not happens-before based,
/// and `Relaxed` is the fastest ordering on every ISA. Synchronisation
/// points that need a consistent view (epoch evaluation) go through
/// [`SharedModel::snapshot_into`] *after* joining/parking the workers.
#[derive(Debug)]
pub struct SharedModel {
    w: Vec<AtomicU64>,
}

impl SharedModel {
    /// Creates a model from an existing dense vector.
    pub fn from_dense(dense: &[f64]) -> Self {
        let w = dense.iter().map(|&x| AtomicU64::new(x.to_bits())).collect();
        Self { w }
    }

    /// Dimensionality `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// Relaxed read of coordinate `j`.
    #[inline]
    pub fn get(&self, j: usize) -> f64 {
        f64::from_bits(self.w[j].load(Ordering::Relaxed))
    }

    /// Replaces `w[j]` by `f(w[j])` — the one read-modify-write every
    /// lock-free update goes through.
    ///
    /// * [`UpdateMode::AtomicCas`]: a compare-exchange loop over the whole
    ///   map `w_j ↦ f(w_j)`. No update is ever lost, and because the
    ///   step kernel passes gradient *and* regularizer as one `f`, neither
    ///   half of a step can land without the other. `f` is re-run on the
    ///   fresh value when another writer wins the race.
    /// * [`UpdateMode::RacyHogwild`]: the literal Hogwild update, a
    ///   separate relaxed load and store. Concurrent writers may overwrite
    ///   each other's contribution — the additional gradient noise the
    ///   perturbed-iterate analysis (paper §3.1) absorbs into the
    ///   `R_1`/`R_2` error terms, exposed so the effect is measurable.
    #[inline]
    pub fn update(&self, j: usize, mode: UpdateMode, f: impl Fn(f64) -> f64) {
        let cell = &self.w[j];
        let mut cur = cell.load(Ordering::Relaxed);
        let next = |cur| f(f64::from_bits(cur)).to_bits();
        match mode {
            UpdateMode::RacyHogwild => cell.store(next(cur), Ordering::Relaxed),
            UpdateMode::AtomicCas => {
                while let Err(actual) =
                    cell.compare_exchange_weak(cur, next(cur), Ordering::Relaxed, Ordering::Relaxed)
                {
                    cur = actual;
                }
            }
        }
    }

    /// Applies `w[j] += delta` using the requested mode.
    #[inline]
    pub fn add(&self, j: usize, delta: f64, mode: UpdateMode) {
        self.update(j, mode, |w| w + delta);
    }

    /// Copies the current (racy) model into `out`.
    ///
    /// When called while workers are updating, the copy is a *perturbed
    /// iterate* — per-coordinate atomic but not globally consistent; exact
    /// when called at a barrier.
    pub fn snapshot_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.extend(
            self.w
                .iter()
                .map(|a| f64::from_bits(a.load(Ordering::Relaxed))),
        );
    }

    /// Allocates and returns a snapshot.
    pub fn snapshot(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.snapshot_into(&mut out);
        out
    }
}

/// Write-path selection for lock-free updates (see [`SharedModel`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UpdateMode {
    /// Compare-exchange loop; linearizable per coordinate.
    #[default]
    AtomicCas,
    /// Relaxed load + relaxed store; concurrent increments may be lost
    /// (original Hogwild behaviour).
    RacyHogwild,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn from_dense_get_and_snapshot() {
        let m = SharedModel::from_dense(&[1.0, -2.0, 3.0]);
        assert_eq!(m.dim(), 3);
        assert_eq!(m.get(1), -2.0);
        assert_eq!(m.snapshot(), vec![1.0, -2.0, 3.0]);
        let mut buf = Vec::new();
        m.snapshot_into(&mut buf);
        assert_eq!(buf, vec![1.0, -2.0, 3.0]);
    }

    #[test]
    fn cas_adds_accumulate() {
        let m = SharedModel::from_dense(&[0.0]);
        for _ in 0..100 {
            m.add(0, 0.5, UpdateMode::AtomicCas);
        }
        assert_eq!(m.get(0), 50.0);
    }

    #[test]
    fn concurrent_cas_adds_conserve_sum() {
        let m = Arc::new(SharedModel::from_dense(&[0.0; 8]));
        let threads = 4;
        let adds_per_thread = 50_000;
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for k in 0..adds_per_thread {
                        m.add((t + k) % 8, 1.0, UpdateMode::AtomicCas);
                    }
                });
            }
        });
        let total: f64 = m.snapshot().iter().sum();
        assert_eq!(total, (threads * adds_per_thread) as f64);
    }

    #[test]
    fn racy_updates_may_lose_but_stay_finite() {
        let m = Arc::new(SharedModel::from_dense(&[0.0]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.add(0, 1.0, UpdateMode::RacyHogwild);
                    }
                });
            }
        });
        let v = m.get(0);
        assert!(v.is_finite());
        assert!(v > 0.0);
        assert!(v <= 40_000.0);
    }

    #[test]
    fn add_dispatches_mode() {
        let m = SharedModel::from_dense(&[0.0]);
        m.add(0, 2.0, UpdateMode::AtomicCas);
        m.add(0, 3.0, UpdateMode::RacyHogwild);
        assert_eq!(m.get(0), 5.0);
    }

    #[test]
    fn negative_zero_and_specials_roundtrip() {
        let m = SharedModel::from_dense(&[-0.0, f64::MIN_POSITIVE]);
        assert_eq!(m.get(0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.get(1), f64::MIN_POSITIVE);
    }
}
