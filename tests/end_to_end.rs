//! End-to-end integration tests: every solver trains on planted synthetic
//! data and behaves per its contract.

use is_asgd::prelude::*;

fn planted(n: usize, d: usize, seed: u64) -> GeneratedData {
    let mut p = DatasetProfile::tiny();
    p.n_samples = n;
    p.dim = d;
    p.label_noise = 0.0;
    generate(&p, seed)
}

fn obj() -> Objective<LogisticLoss> {
    Objective::new(LogisticLoss, Regularizer::L1 { eta: 1e-6 })
}

#[test]
fn every_solver_learns_planted_data() {
    let data = planted(1200, 400, 1);
    let cfg = TrainConfig::default().with_epochs(6).with_step_size(0.5);
    let combos: Vec<(Algorithm, Execution, &str)> = vec![
        (Algorithm::Sgd, Execution::Sequential, "SGD"),
        (Algorithm::IsSgd, Execution::Sequential, "IS-SGD"),
        (Algorithm::Asgd, Execution::Threads(2), "ASGD"),
        (Algorithm::IsAsgd, Execution::Threads(2), "IS-ASGD"),
        (
            Algorithm::Asgd,
            Execution::Simulated {
                tau: 16,
                workers: 4,
            },
            "ASGD-sim",
        ),
        (
            Algorithm::IsAsgd,
            Execution::Simulated {
                tau: 16,
                workers: 4,
            },
            "IS-ASGD-sim",
        ),
        (
            Algorithm::SvrgSgd(SvrgVariant::Literature),
            Execution::Sequential,
            "SVRG-SGD",
        ),
        (Algorithm::SvrgAsgd, Execution::Threads(2), "SVRG-ASGD"),
    ];
    let zero_model_error = {
        let o = obj();
        o.eval(&data.dataset, &vec![0.0; data.dataset.dim()])
            .error_rate
    };
    for (algo, exec, label) in combos {
        let r = train(&data.dataset, &obj(), algo, exec, &cfg, "planted").unwrap();
        assert!(
            r.final_metrics.error_rate < zero_model_error * 0.6,
            "{label}: error {} should clearly beat the zero model's {zero_model_error}",
            r.final_metrics.error_rate
        );
        assert!(
            r.model.iter().all(|x| x.is_finite()),
            "{label}: finite model"
        );
        assert!(r.final_metrics.objective.is_finite());
        // Trace invariants.
        assert_eq!(r.trace.points.len(), cfg.epochs + 1, "{label}");
        assert_eq!(r.trace.points[0].epoch, 0.0);
        for w in r.trace.points.windows(2) {
            assert!(w[1].epoch > w[0].epoch, "{label}: epochs increase");
            assert!(w[1].wall_secs >= w[0].wall_secs, "{label}: time increases");
        }
    }
}

#[test]
fn simulated_runs_are_bit_deterministic() {
    let data = planted(600, 300, 2);
    let cfg = TrainConfig::default().with_epochs(4).with_seed(1234);
    for (algo, label) in [
        (Algorithm::Sgd, "sgd"),
        (Algorithm::IsAsgd, "is-asgd"),
        (Algorithm::SvrgAsgd, "svrg"),
    ] {
        let exec = Execution::Simulated { tau: 8, workers: 4 };
        let a = train(&data.dataset, &obj(), algo, exec, &cfg, "det").unwrap();
        let b = train(&data.dataset, &obj(), algo, exec, &cfg, "det").unwrap();
        assert_eq!(a.model, b.model, "{label}: identical models");
        let ta: Vec<f64> = a.trace.points.iter().map(|p| p.objective).collect();
        let tb: Vec<f64> = b.trace.points.iter().map(|p| p.objective).collect();
        assert_eq!(ta, tb, "{label}: identical traces");
    }
}

#[test]
fn seeds_change_trajectories() {
    let data = planted(600, 300, 3);
    let exec = Execution::Simulated { tau: 8, workers: 4 };
    let a = train(
        &data.dataset,
        &obj(),
        Algorithm::IsAsgd,
        exec,
        &TrainConfig::default().with_epochs(3).with_seed(1),
        "s",
    )
    .unwrap();
    let b = train(
        &data.dataset,
        &obj(),
        Algorithm::IsAsgd,
        exec,
        &TrainConfig::default().with_epochs(3).with_seed(2),
        "s",
    )
    .unwrap();
    assert_ne!(a.model, b.model);
}

#[test]
fn threaded_runs_converge_at_any_thread_count() {
    let data = planted(900, 300, 4);
    let cfg = TrainConfig::default().with_epochs(5);
    for k in [1usize, 2, 3, 4, 8] {
        let r = train(
            &data.dataset,
            &obj(),
            Algorithm::IsAsgd,
            Execution::Threads(k),
            &cfg,
            "k",
        )
        .unwrap();
        assert!(
            r.final_metrics.error_rate < 0.25,
            "k={k}: error {}",
            r.final_metrics.error_rate
        );
    }
}

#[test]
fn error_paths_are_typed() {
    let data = planted(50, 40, 5);
    let cfg = TrainConfig::default();
    // Empty dataset.
    let empty = DatasetBuilder::new(4).finish();
    assert!(train(
        &empty,
        &obj(),
        Algorithm::Sgd,
        Execution::Sequential,
        &cfg,
        "e"
    )
    .is_err());
    // Zero epochs / bad step size.
    let bad = TrainConfig::default().with_epochs(0);
    assert!(train(
        &data.dataset,
        &obj(),
        Algorithm::Sgd,
        Execution::Sequential,
        &bad,
        "e"
    )
    .is_err());
    let bad = TrainConfig::default().with_step_size(f64::NAN);
    assert!(train(
        &data.dataset,
        &obj(),
        Algorithm::Sgd,
        Execution::Sequential,
        &bad,
        "e"
    )
    .is_err());
    // More workers than samples.
    assert!(train(
        &data.dataset,
        &obj(),
        Algorithm::IsAsgd,
        Execution::Threads(51),
        &cfg,
        "e"
    )
    .is_err());
}
