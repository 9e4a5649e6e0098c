//! Cross-crate property tests on the full training stack.

use is_asgd::prelude::*;
use proptest::prelude::*;

fn small_data(seed: u64, n: usize) -> GeneratedData {
    let mut p = DatasetProfile::tiny();
    p.n_samples = n.max(16);
    p.dim = 100;
    p.mean_nnz = 6;
    generate(&p, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any (τ, workers, seed) combination yields a finite model and a
    /// monotone wall-clock trace.
    #[test]
    fn simulated_training_is_total(seed in 0u64..500, tau in 0usize..64, workers in 1usize..6) {
        let data = small_data(seed, 200);
        let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-5 });
        let cfg = TrainConfig::default().with_epochs(2).with_seed(seed);
        let r = train(
            &data.dataset,
            &obj,
            Algorithm::IsAsgd,
            Execution::Simulated { tau, workers },
            &cfg,
            "prop",
        )
        .unwrap();
        prop_assert!(r.model.iter().all(|x| x.is_finite()));
        prop_assert!(r.final_metrics.objective.is_finite());
        prop_assert!(r.final_metrics.error_rate >= 0.0 && r.final_metrics.error_rate <= 1.0);
        for w in r.trace.points.windows(2) {
            prop_assert!(w[1].wall_secs >= w[0].wall_secs);
        }
    }

    /// The objective after training is never worse than the zero model's
    /// (the step sizes in play are stable for this data).
    #[test]
    fn training_never_hurts(seed in 0u64..200) {
        let data = small_data(seed, 300);
        let obj = Objective::new(LogisticLoss, Regularizer::None);
        let zero = obj.eval(&data.dataset, &vec![0.0; data.dataset.dim()]);
        let cfg = TrainConfig::default().with_epochs(3).with_step_size(0.2).with_seed(seed);
        let r = train(&data.dataset, &obj, Algorithm::Sgd, Execution::Sequential, &cfg, "p")
            .unwrap();
        prop_assert!(
            r.final_metrics.objective <= zero.objective,
            "trained {} vs zero {}",
            r.final_metrics.objective,
            zero.objective
        );
    }

    /// Importance weights are strictly positive and the step corrections
    /// have unit expectation under the induced distribution.
    #[test]
    fn importance_invariants(seed in 0u64..300) {
        let data = small_data(seed, 150);
        let w = importance_weights(
            &data.dataset,
            &LogisticLoss,
            Regularizer::None,
            ImportanceScheme::LipschitzSmoothness,
        );
        prop_assert!(w.iter().all(|&x| x > 0.0));
        let total: f64 = w.iter().sum();
        let corr = is_asgd::losses::step_corrections(&w);
        let e: f64 = corr.iter().zip(&w).map(|(&c, &l)| c * l / total).sum();
        prop_assert!((e - 1.0).abs() < 1e-9, "E[1/(np)] = {e}");
    }

    /// LibSVM round-trip through the real generator output.
    #[test]
    fn generated_data_survives_libsvm(seed in 0u64..100) {
        let data = small_data(seed, 60);
        let mut buf = Vec::new();
        libsvm::write_writer(&data.dataset, &mut buf).unwrap();
        let back = libsvm::parse_reader(buf.as_slice(), Some(data.dataset.dim())).unwrap();
        prop_assert_eq!(back.n_samples(), data.dataset.n_samples());
        prop_assert_eq!(back.nnz(), data.dataset.nnz());
        // Values survive the decimal round-trip to within print precision.
        for i in 0..back.n_samples() {
            let (a, b) = (data.dataset.row(i), back.row(i));
            prop_assert_eq!(a.indices, b.indices);
            prop_assert_eq!(a.label, b.label);
            for (x, y) in a.values.iter().zip(b.values) {
                prop_assert!((x - y).abs() <= 1e-12 * x.abs().max(1.0));
            }
        }
    }

    /// Stepping from gathered windows is stepping from the dataset: on a
    /// generated dataset seen through a row order, a random draw list
    /// (repeats included) cut into windows of random lengths, every
    /// `sgd_step` on a gathered row returns the `g` bits and leaves the
    /// model bits that the same step on `Dataset::row` does — on a dense
    /// model and on a one-thread shared model, under all three
    /// regularizers.
    #[test]
    fn stepping_from_windows_is_stepping_from_the_dataset(
        seed in 0u64..300,
        picks in prop::collection::vec(0usize..10_000, 0..150),
        cuts in prop::collection::vec(1usize..40, 1..8),
    ) {
        use is_asgd::core::solvers::solver::SharedView;
        use is_asgd::losses::sgd_step;
        use is_asgd::sparse::RowWindow;
        let data = small_data(seed, 90).dataset;
        let n = data.n_samples();
        let order: Vec<usize> = (0..n).map(|i| (i * 37 + seed as usize) % n).collect();
        let view = data.reordered(&order).unwrap();
        let draws: Vec<usize> = picks.iter().map(|&p| p % n).collect();
        let mut windows = Vec::new();
        let mut at = 0;
        for &len in cuts.iter().cycle() {
            if at == draws.len() {
                break;
            }
            let end = (at + len).min(draws.len());
            windows.push(&draws[at..end]);
            at = end;
        }
        let step = |k: usize| 0.1 * (1 + k % 3) as f64;
        let w0: Vec<f64> = (0..view.dim()).map(|j| (j % 5) as f64 * 0.02 - 0.04).collect();
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for reg in [
            Regularizer::None,
            Regularizer::L1 { eta: 1e-3 },
            Regularizer::L2 { eta: 1e-3 },
        ] {
            let obj = Objective::new(LogisticLoss, reg);
            let mut oracle = w0.clone();
            let want: Vec<u64> = draws
                .iter()
                .enumerate()
                .map(|(k, &i)| sgd_step(&obj, &view.row(i), step(k), oracle.as_mut_slice()).to_bits())
                .collect();
            let mut dense = w0.clone();
            let model = SharedModel::from_dense(&w0);
            let mut shared = SharedView(&model);
            let (mut got_dense, mut got_shared) = (Vec::new(), Vec::new());
            let mut window = RowWindow::with_row_capacity(0);
            for cut in &windows {
                window.gather(&view, cut.iter().copied());
                for r in 0..window.len() {
                    let k = got_dense.len();
                    let row = window.row(r);
                    got_dense.push(sgd_step(&obj, &row, step(k), dense.as_mut_slice()).to_bits());
                    got_shared.push(sgd_step(&obj, &row, step(k), &mut shared).to_bits());
                }
            }
            prop_assert_eq!(&got_dense, &want, "{:?}: dense g", reg);
            prop_assert_eq!(&got_shared, &want, "{:?}: shared g", reg);
            prop_assert_eq!(bits(&dense), bits(&oracle), "{:?}: dense model", reg);
            prop_assert_eq!(bits(&model.snapshot()), bits(&oracle), "{:?}: shared model", reg);
        }
    }

    /// Evaluation is invariant under row permutation.
    #[test]
    fn eval_is_permutation_invariant(seed in 0u64..200) {
        let data = small_data(seed, 80);
        let obj = Objective::new(LogisticLoss, Regularizer::L2 { eta: 0.01 });
        let w: Vec<f64> = (0..data.dataset.dim()).map(|i| ((i * seed as usize) % 7) as f64 * 0.05 - 0.15).collect();
        let base = obj.eval(&data.dataset, &w);
        let mut order: Vec<usize> = (0..data.dataset.n_samples()).collect();
        order.reverse();
        let permuted = data.dataset.reordered(&order).unwrap();
        let p = obj.eval(&permuted, &w);
        prop_assert!((base.objective - p.objective).abs() < 1e-10);
        prop_assert!((base.rmse - p.rmse).abs() < 1e-10);
        prop_assert_eq!(base.error_rate, p.error_rate);
    }
}
