//! Figure 4 — absolute convergence (RMSE & error-rate vs *wall-clock*),
//! with the paper's optimum markers: the wall-clock at which ASGD reaches
//! its best error, and the (earlier) wall-clock at which IS-ASGD reaches
//! the same error.
//!
//! These runs use **real Hogwild threads** over the lock-free shared
//! model, so wall-clock numbers reflect genuine parallel execution at
//! whatever `--threads` the host supports (paper: 16/32/44 on a 44-core
//! Xeon; the default sweep is 1 and the host's core count instead).
//! SVRG-ASGD joins only on the News20-like profile, as in the paper.
//!
//! The traces are left behind as `<stem>_traces.json`; [`load`] and
//! [`cells`] read them back for the artifacts derived from this figure.

use crate::artifacts::{self, FIG4};
use crate::common::{fmt_opt, merge_results, paper_objective, train_avg, Ctx, CurveCsv};
use isasgd_core::{train, Algorithm, Execution, ImportanceScheme, RunResult};
use isasgd_datagen::PaperProfile;
use isasgd_metrics::interpolate::time_to_error;
use isasgd_metrics::speedup::ratio;
use isasgd_metrics::table::{fmt_num, TextTable};
use isasgd_metrics::Trace;
use std::collections::BTreeSet;

pub fn fill(ctx: &mut Ctx, table: &mut TextTable) {
    let obj = paper_objective();
    let threads = ctx.settings.threads.clone();
    let reps = ctx.settings.avg_runs.max(1);
    let mut traces = Vec::new();
    let mut csv = CurveCsv::new("threads", true);

    for p in PaperProfile::ALL {
        let data = ctx.dataset_training(p);
        let ds = &data.dataset;
        let mut cfg = ctx.config(ctx.settings.epochs_for(p), p.paper_step_size());
        cfg.importance = ImportanceScheme::GradNormBound { radius: 1.0 };

        // Sequential SGD baseline for the wall-clock axis.
        ctx.log(&format!("{} SGD ({reps} reps)…", p.id()));
        let seq = Execution::Sequential;
        let sgd = train_avg(reps, ds, &obj, Algorithm::Sgd, seq, &cfg, p.id()).trace;
        csv.push(1, &sgd);
        traces.push(sgd);

        // threads=1 is the SGD row above
        for &k in threads.iter().filter(|&&k| k >= 2) {
            let exec = Execution::Threads(k);
            // Interleave the two algorithms rep by rep, alternating which
            // goes first, so slow machine-state drift (thermal, cache,
            // background load) cannot masquerade as an algorithmic
            // wall-clock difference; traces and timings are then averaged
            // per algorithm.
            ctx.log(&format!(
                "{} ASGD/IS-ASGD k={k} ({reps} interleaved reps)…",
                p.id()
            ));
            let mut runs = [Vec::new(), Vec::new()];
            let seeds = isasgd_sampling::rng::derive_seeds(ctx.settings.seed, reps);
            for (i, &seed) in seeds.iter().enumerate() {
                for arm in [i % 2, 1 - i % 2] {
                    let algo = [Algorithm::Asgd, Algorithm::IsAsgd][arm];
                    let c = cfg.with_seed(seed);
                    runs[arm].push(train(ds, &obj, algo, exec, &c, p.id()).expect("hogwild run"));
                }
            }
            let [asgd, is_asgd] = runs.map(merge_results);

            // The paper's optimum marker: ASGD's best error, and when
            // each algorithm first reaches it.
            let opt = asgd.trace.best_error().unwrap_or(f64::NAN);
            let speedup = ratio(
                time_to_error(&asgd.trace, opt),
                time_to_error(&is_asgd.trace, opt),
            );
            let mut emit = |r: RunResult, sp: Option<f64>, setup: bool| {
                table.row(vec![
                    p.id().to_string(),
                    k.to_string(),
                    r.trace.algorithm.clone(),
                    fmt_num(r.train_secs),
                    fmt_num(r.trace.best_error().unwrap_or(f64::NAN)),
                    fmt_opt(time_to_error(&r.trace, opt)),
                    fmt_opt(sp),
                    if setup {
                        format!("{:.1}%", r.setup_overhead() * 100.0)
                    } else {
                        "-".into()
                    },
                ]);
                csv.push(k, &r.trace);
                traces.push(r.trace);
            };
            emit(asgd, None, true);
            emit(is_asgd, speedup, true);
            // SVRG-ASGD wall-clock only on the dense small profile.
            if p == PaperProfile::News20 {
                ctx.log(&format!("{} SVRG-ASGD k={k}…", p.id()));
                let algo = Algorithm::SvrgAsgd;
                emit(
                    train_avg(1, ds, &obj, algo, exec, &cfg, p.id()),
                    None,
                    false,
                );
            }
        }
    }
    ctx.write("_curves.csv", &csv.text);
    ctx.write_traces(&traces);
}

/// One (dataset, threads) cell of Figure 4, read back from its traces.
pub struct Cell<'a> {
    pub dataset: &'a str,
    pub threads: usize,
    pub sgd: Option<&'a Trace>,
    pub asgd: &'a Trace,
    pub is_asgd: &'a Trace,
}

/// The traces Figure 4 left in the output directory; runs the figure
/// first when there are none.
pub fn load(ctx: &mut Ctx) -> Vec<Trace> {
    let file = format!("{}_traces.json", FIG4.stem());
    let path = ctx.settings.out_dir.join(file);
    let read = || {
        let bytes = std::fs::read(&path).ok()?;
        serde_json::from_slice(&bytes).ok()
    };
    read().unwrap_or_else(|| {
        ctx.log(&format!(
            "no {} — running {} first",
            path.display(),
            FIG4.name
        ));
        artifacts::run(ctx, &FIG4);
        read().expect("the figure just wrote its traces")
    })
}

/// Pairs the traces up: every (dataset, threads) with both an ASGD and
/// an IS-ASGD trace, in dataset then thread order, beside the dataset's
/// sequential SGD baseline (concurrency 1).
pub fn cells(traces: &[Trace]) -> Vec<Cell<'_>> {
    let find = |ds: &str, algo: Algorithm, k: usize| {
        let is = |t: &&Trace| t.dataset == ds && t.algorithm == algo.name() && t.concurrency == k;
        traces.iter().find(is)
    };
    let keys: BTreeSet<(&str, usize)> = traces
        .iter()
        .filter(|t| t.algorithm == Algorithm::IsAsgd.name())
        .map(|t| (t.dataset.as_str(), t.concurrency))
        .collect();
    let cell = |(dataset, threads)| {
        Some(Cell {
            dataset,
            threads,
            sgd: find(dataset, Algorithm::Sgd, 1),
            asgd: find(dataset, Algorithm::Asgd, threads)?,
            is_asgd: find(dataset, Algorithm::IsAsgd, threads)?,
        })
    };
    keys.into_iter().filter_map(cell).collect()
}
