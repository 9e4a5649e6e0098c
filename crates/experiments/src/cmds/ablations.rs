//! Ablations backing the paper's design-choice claims.

use crate::common::{fmt_opt, paper_objective, weights, Ctx};
use isasgd_core::{
    train, Algorithm, BalancePolicy, Execution, ImportanceScheme, SequenceMode, SvrgVariant,
};
use isasgd_datagen::{generate, DatasetProfile, FeatureKind, PaperProfile};
use isasgd_metrics::interpolate::time_to_target;
use isasgd_metrics::speedup::ratio;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::trace::best_error_curve_by_epoch;

/// §2.3–2.4 — does importance balancing matter? Runs IS-ASGD with
/// ForceBalance vs ForceShuffle vs Identity sharding on a deliberately
/// high-ρ profile (where the paper predicts balancing wins) and on the
/// low-ρ KDD-like profile (where shuffling suffices).
pub fn balance(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    // A skewed profile: heavy-tailed norms ⇒ large ρ ⇒ shard imbalance.
    let skewed = DatasetProfile {
        name: "skewed",
        dim: 5_000,
        n_samples: 8_000,
        mean_nnz: 30,
        zipf_exponent: 0.9,
        target_psi_norm: 0.60,
        target_rho: 5e-2,
        label_noise: 0.02,
        planted_density: 0.10,
        feature_kind: FeatureKind::GaussianScaled,
        noise_nnz_coupling: 1.0,
    };
    let gen = generate(&skewed, ctx.settings.seed);
    let kdd_profile = PaperProfile::KddAlgebra;
    let kdd = ctx.dataset_training(kdd_profile);

    let mut cfg = ctx.config(ctx.settings.epochs.unwrap_or(10), 0.5);
    cfg.importance = ImportanceScheme::GradNormBound { radius: 1.0 };
    let exec = Execution::Simulated {
        tau: 32,
        workers: 8,
    };
    for (name, ds) in [
        (skewed.name, &gen.dataset),
        (kdd_profile.id(), &kdd.dataset),
    ] {
        for (policy, label) in [
            (BalancePolicy::ForceBalance, "head-tail"),
            (BalancePolicy::ForceGreedy, "greedy-lpt"),
            (BalancePolicy::ForceShuffle, "shuffle"),
            (BalancePolicy::Identity, "identity"),
            (BalancePolicy::default(), "adaptive"),
        ] {
            cfg.balance = policy;
            let r = train(ds, &obj, Algorithm::IsAsgd, exec, &cfg, name).expect("run");
            table.row(vec![
                name.to_string(),
                label.to_string(),
                r.balanced.map_or("-".into(), |b| b.to_string()),
                fmt_num(r.rho.unwrap_or(f64::NAN)),
                fmt_num(r.trace.best_error().unwrap_or(f64::NAN)),
                fmt_num(r.trace.points.last().map_or(f64::NAN, |q| q.rmse)),
            ]);
        }
    }
}

/// §4.2 — regenerate-per-epoch vs shuffle-once sample sequences.
pub fn sequences(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    for p in [PaperProfile::News20, PaperProfile::KddAlgebra] {
        let data = ctx.dataset_training(p);
        let mut cfg = ctx.config(ctx.settings.epochs_for(p).min(15), p.paper_step_size());
        cfg.importance = ImportanceScheme::GradNormBound { radius: 1.0 };
        let exec = Execution::Simulated {
            tau: 16,
            workers: 8,
        };
        for (mode, label) in [
            (SequenceMode::RegeneratePerEpoch, "regenerate"),
            (SequenceMode::ShuffleOnce, "shuffle-once"),
        ] {
            cfg.sequence = mode;
            let r = train(&data.dataset, &obj, Algorithm::IsAsgd, exec, &cfg, p.id()).expect("run");
            table.row(vec![
                p.id().to_string(),
                label.to_string(),
                fmt_num(r.trace.best_error().unwrap_or(f64::NAN)),
                fmt_num(r.trace.points.last().map_or(f64::NAN, |q| q.rmse)),
                fmt_num(r.setup_secs),
                fmt_num(r.train_secs),
            ]);
        }
    }
}

/// Importance scheme × ψ × step-stability regime sweep.
///
/// The paper's Eq. 12 prescribes `p_i ∝ L_i` (smoothness constants) but
/// reports gains (1.13–1.54×) far above what its own Table-1 ψ values
/// predict through the variance bound alone (`1/√ψ_norm` ≈ 1.01–1.07).
/// This grid measures all four Eq.-12 weight choices against uniform
/// sampling across the importance spread ψ and the hotness `h = λ·L̄`
/// (the step-stability regime). At the paper's shared-λ protocol the
/// curvature channel cancels exactly (per-epoch effective step mass per
/// row is λ·L_i under every static sampler), so the measured differences
/// isolate the variance channel and the tail effects of extreme step
/// corrections; the IS-gain artifact covers the tuned-λ regime where
/// the large factors appear.
pub fn schemes(ctx: &mut Ctx, table: &mut TextTable) {
    use ImportanceScheme as Sch;
    let obj = paper_objective();
    // Reduced-size kdd-like profile: enough samples for stable curves,
    // small enough that the ψ × hotness × scheme grid stays in minutes.
    let base_scale = (ctx.settings.scale * 0.25).min(0.25);
    let profile = PaperProfile::KddAlgebra;
    let lambda = profile.paper_step_size();
    let epochs = ctx.settings.epochs.unwrap_or(20);
    // ψ axis: the Table-1 printed value (on normalized constants) down to
    // the raw-constant spread real variable-nnz data exhibits.
    let paper_psi = profile.paper_table1().3;
    for psi in [paper_psi, 0.7, 0.5, 0.35] {
        for hotness in [1.0, 2.0] {
            let mut p = profile.scaled().scaled_by(base_scale);
            p.target_psi_norm = psi;
            let cv_sq = 1.0 / psi - 1.0;
            let mean_l = hotness / lambda;
            p.target_rho = cv_sq * mean_l * mean_l;
            if let FeatureKind::Binary { .. } = p.feature_kind {
                // Binary mode carries the importance scale in the value.
                p.feature_kind = FeatureKind::Binary {
                    value: (4.0 * mean_l / p.mean_nnz as f64).sqrt(),
                };
            }
            let gen = generate(&p, ctx.settings.seed);
            let exec = Execution::Simulated {
                tau: 32,
                workers: 8,
            };
            let mut cfg = ctx.config(epochs, lambda);
            let asgd =
                train(&gen.dataset, &obj, Algorithm::Asgd, exec, &cfg, p.name).expect("asgd");
            // Common target both algorithms plausibly reach: 1.25× ASGD's
            // best error; epoch-speedup is ASGD's time to it over the
            // candidate's.
            let target = 1.25 * asgd.trace.best_error().unwrap_or(f64::NAN);
            let asgd_to = time_to_target(&best_error_curve_by_epoch(&asgd.trace), target);
            for (scheme, label) in [
                (Sch::Uniform, "uniform(ASGD)"),
                (Sch::GradNormBound { radius: 1.0 }, "gradnorm"),
                (Sch::LipschitzSmoothness, "smoothness"),
                (Sch::PartiallyBiased { bias: 0.5 }, "partial-0.5"),
            ] {
                let r = if matches!(scheme, Sch::Uniform) {
                    asgd.clone()
                } else {
                    cfg.importance = scheme;
                    train(&gen.dataset, &obj, Algorithm::IsAsgd, exec, &cfg, p.name)
                        .expect("is-asgd")
                };
                let to_target = time_to_target(&best_error_curve_by_epoch(&r.trace), target);
                // Early-stage error: at 25% of the epoch budget.
                let early = r
                    .trace
                    .points
                    .iter()
                    .find(|q| q.epoch >= epochs as f64 * 0.25)
                    .map_or(f64::NAN, |q| q.error_rate);
                let corr = isasgd_core::step_corrections(&weights(&gen.dataset, &obj, scheme));
                table.row(vec![
                    fmt_num(psi),
                    fmt_num(hotness),
                    label.to_string(),
                    fmt_num(r.trace.best_error().unwrap_or(f64::NAN)),
                    fmt_num(early),
                    fmt_opt(to_target),
                    fmt_opt(ratio(asgd_to, to_target)),
                    fmt_num(corr.iter().cloned().fold(0.0, f64::max)),
                ]);
            }
        }
    }
}

/// §1.2 — the public skip-µ SVRG variant vs the literature algorithm.
pub fn svrg(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    let p = PaperProfile::News20;
    let data = ctx.dataset(p);
    // SVRG needs a gentler step on this objective.
    let cfg = ctx.config(ctx.settings.epochs_for(p), 0.05);
    let exec = Execution::Sequential;
    for (variant, label) in [
        (SvrgVariant::Literature, "literature"),
        (SvrgVariant::SkipMu, "skip-mu"),
    ] {
        let algo = Algorithm::SvrgSgd(variant);
        let r = train(&data.dataset, &obj, algo, exec, &cfg, p.id()).expect("svrg run");
        for q in &r.trace.points {
            table.row(vec![
                label.to_string(),
                fmt_num(q.epoch),
                fmt_num(q.rmse),
                fmt_num(q.error_rate),
            ]);
        }
    }
}
