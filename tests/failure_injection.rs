//! Failure-injection tests: malformed inputs must surface typed errors
//! (never panics) through every public entry point.

use is_asgd::prelude::*;
use is_asgd::sparse::SparseError;

#[test]
fn libsvm_malformed_inputs() {
    let cases: &[(&str, &str)] = &[
        ("+1 0:1\n", "zero (1-based) index"),
        ("+1 1:abc\n", "non-numeric value"),
        ("+1 xyz\n", "missing colon"),
        ("nolabel\n", "unparseable label"),
        ("+1 2:1 2:3\n", "duplicate index"),
    ];
    for (text, what) in cases {
        let r = libsvm::parse_reader(text.as_bytes(), None);
        assert!(r.is_err(), "{what} must be rejected: {text:?}");
    }
}

#[test]
fn libsvm_missing_file() {
    let r = libsvm::read_file("/nonexistent/path/file.libsvm", None);
    assert!(matches!(r, Err(SparseError::Io(_))));
}

#[test]
fn builder_rejects_nan_and_out_of_range() {
    let mut b = DatasetBuilder::new(10);
    assert!(matches!(
        b.push_row(&[(0, f64::NAN)], 1.0),
        Err(SparseError::NonFiniteValue { .. })
    ));
    assert!(matches!(
        b.push_row(&[(10, 1.0)], 1.0),
        Err(SparseError::IndexOutOfBounds { .. })
    ));
    assert!(matches!(
        b.push_row(&[(0, 1.0)], 2.5),
        Err(SparseError::BadLabel { .. })
    ));
    // Builder state survives rejected rows.
    b.push_row(&[(0, 1.0)], 1.0).unwrap();
    assert_eq!(b.len(), 1);
}

#[test]
fn samplers_reject_degenerate_weights() {
    assert!(AliasTable::new(&[]).is_err());
    assert!(AliasTable::new(&[0.0, 0.0]).is_err());
    assert!(AliasTable::new(&[-1.0, 2.0]).is_err());
    assert!(AliasTable::new(&[f64::INFINITY]).is_err());
    assert!(SampleSequence::weighted(&[1.0], 0, SequenceMode::ShuffleOnce, 0).is_err());
}

#[test]
fn trainer_rejects_all_invalid_configs() {
    let data = generate(&DatasetProfile::tiny(), 1);
    let obj = Objective::new(LogisticLoss, Regularizer::None);
    let base = TrainConfig::default();

    // Degenerate execution parameters.
    for exec in [
        Execution::Threads(0),
        Execution::Simulated { tau: 4, workers: 0 },
        Execution::Simulated {
            tau: 4,
            workers: usize::MAX,
        },
    ] {
        assert!(
            train(&data.dataset, &obj, Algorithm::IsAsgd, exec, &base, "x").is_err(),
            "{exec:?}"
        );
    }
    // Degenerate hyper-parameters.
    for cfg in [
        base.with_step_size(0.0),
        base.with_step_size(-1.0),
        base.with_step_size(f64::INFINITY),
        base.with_epochs(0),
    ] {
        assert!(train(
            &data.dataset,
            &obj,
            Algorithm::Sgd,
            Execution::Sequential,
            &cfg,
            "x"
        )
        .is_err());
    }
}

#[test]
fn reorder_with_out_of_range_indices() {
    let data = generate(&DatasetProfile::tiny(), 2);
    let n = data.dataset.n_samples();
    assert_eq!(
        data.dataset.reordered(&[n]),
        Err(SparseError::RowOutOfRange { row: n, rows: n })
    );
    assert!(data.dataset.reordered(&[]).unwrap().is_empty());
}

#[test]
fn empty_dataset_paths() {
    let empty = DatasetBuilder::new(8).finish();
    let obj = Objective::new(LogisticLoss, Regularizer::None);
    // Evaluation of an empty dataset is defined (no panic, zero counts).
    let m = obj.eval(&empty, &[0.0; 8]);
    assert_eq!(m.error_rate, 0.0);
    // Training is rejected.
    assert!(train(
        &empty,
        &obj,
        Algorithm::Sgd,
        Execution::Sequential,
        &TrainConfig::default(),
        "e"
    )
    .is_err());
    // Stats still computable.
    let s = DatasetStats::compute(&empty);
    assert_eq!(s.n_samples, 0);
}

#[test]
fn all_zero_rows_still_train() {
    // Rows with empty support: gradient is zero, importance weight floors
    // to a positive value; training must not NaN or divide by zero.
    let mut b = DatasetBuilder::new(4);
    b.push_row(&[], 1.0).unwrap();
    b.push_row(&[(0, 1.0)], -1.0).unwrap();
    b.push_row(&[], -1.0).unwrap();
    b.push_row(&[(1, 2.0)], 1.0).unwrap();
    let ds = b.finish();
    let obj = Objective::new(LogisticLoss, Regularizer::L1 { eta: 0.01 });
    let cfg = TrainConfig::default().with_epochs(3);
    let r = train(
        &ds,
        &obj,
        Algorithm::IsSgd,
        Execution::Sequential,
        &cfg,
        "zeros",
    )
    .unwrap();
    assert!(r.model.iter().all(|x| x.is_finite()));
}

#[test]
fn extreme_importance_skew_stays_finite() {
    // One sample with a 10⁶× larger norm: corrections span 6 orders of
    // magnitude; training must stay finite (small λ).
    let mut b = DatasetBuilder::new(4);
    b.push_row(&[(0, 1e3)], 1.0).unwrap();
    for i in 0..50 {
        b.push_row(
            &[((i % 4) as u32, 1e-3)],
            if i % 2 == 0 { 1.0 } else { -1.0 },
        )
        .unwrap();
    }
    let ds = b.finish();
    let obj = Objective::new(LogisticLoss, Regularizer::None);
    let cfg = TrainConfig::default().with_epochs(2).with_step_size(1e-3);
    let r = train(
        &ds,
        &obj,
        Algorithm::IsSgd,
        Execution::Sequential,
        &cfg,
        "skew",
    )
    .unwrap();
    assert!(r.model.iter().all(|x| x.is_finite()));
    assert!(r.final_metrics.objective.is_finite());
}
