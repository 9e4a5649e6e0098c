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

    /// Replaces `w[j]` by `f(w[j])` — the one write every lock-free
    /// update goes through: a relaxed load, then a relaxed store of
    /// `f` of what was loaded, the literal Hogwild update.
    ///
    /// A writer that stores between another's load and store overwrites
    /// that writer's contribution: an increment may be lost, never torn,
    /// since the coordinate is one atomic word. That is the perturbed
    /// iterate noise the paper's analysis (§3.1) absorbs into its
    /// `R_1`/`R_2` error terms. A coordinate with one writer loses
    /// nothing, so a one-thread run is the dense arithmetic exactly.
    /// The step kernel passes gradient *and* regularizer as one `f`, so
    /// the store never carries half a step.
    #[inline]
    pub fn update(&self, j: usize, f: impl FnOnce(f64) -> f64) {
        let cell = &self.w[j];
        let cur = f64::from_bits(cell.load(Ordering::Relaxed));
        cell.store(f(cur).to_bits(), Ordering::Relaxed);
    }

    /// Applies `w[j] += delta` through [`SharedModel::update`].
    #[inline]
    pub fn add(&self, j: usize, delta: f64) {
        self.update(j, |w| w + delta);
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
    fn racy_updates_may_lose_but_stay_finite() {
        let m = Arc::new(SharedModel::from_dense(&[0.0]));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        m.add(0, 1.0);
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
    fn disjoint_writers_lose_nothing() {
        // One writer per coordinate: every load sees the writer's own
        // last store, so the plain store accumulates exactly.
        let threads = 4;
        let adds_per_coord = 10_000;
        let m = SharedModel::from_dense(&[0.0; 8]);
        std::thread::scope(|s| {
            for t in 0..threads {
                let m = &m;
                s.spawn(move || {
                    for k in 0..adds_per_coord * 2 {
                        m.add(t + threads * (k % 2), 0.5);
                    }
                });
            }
        });
        assert_eq!(m.snapshot(), vec![adds_per_coord as f64 * 0.5; 8]);
    }

    #[test]
    fn negative_zero_and_specials_roundtrip() {
        let m = SharedModel::from_dense(&[-0.0, f64::MIN_POSITIVE]);
        assert_eq!(m.get(0).to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.get(1), f64::MIN_POSITIVE);
    }
}
