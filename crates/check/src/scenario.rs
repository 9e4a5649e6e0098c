//! Model-checked cluster scenarios: one [`ScenarioSpec`] describes a
//! small, fully deterministic cluster run (dataset, config, fault
//! vocabulary, optional re-enabled historical bugs); [`run_schedule`]
//! executes it once under a given [`Chooser`] through the *real*
//! coordinator and `NodeRuntime` code, and judges the outcome against
//! the protocol invariants with the sequential in-process engine as
//! oracle.
//!
//! Specs must stay small (2 workers × 2 rounds explores within a test's
//! time) and *valid*: config validation failures would tear links
//! down before the model's worker threads exist, which the scheduler —
//! by design, it models protocol behaviour, not harness typos — would
//! wait on forever.

use crate::explore::{explore, AbortKind, Chooser, Exploration, ExploreStats, Verdict};
use crate::sched::{FaultCounts, FaultSpec, SchedReport, Scheduler};
use isasgd_cluster::{
    in_process_links, run_with_links, run_with_links_observed, ClusterConfig, ClusterRun,
    ProtocolBugs, TransportConfig,
};
use isasgd_core::{
    CommitPolicy, ImportanceScheme, LogisticLoss, Objective, Regularizer, SamplingStrategy,
};
use isasgd_sparse::{Dataset, DatasetBuilder};

/// A deterministic model-checking scenario: cluster shape, data, fault
/// vocabulary, and which historical bugs (if any) to re-enable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioSpec {
    /// Worker count.
    pub nodes: usize,
    /// Synchronization rounds.
    pub rounds: usize,
    /// Local epochs per round.
    pub local_epochs: usize,
    /// Dataset rows (skewed synthetic data, 8 features).
    pub rows: u32,
    /// Cluster RNG seed.
    pub seed: u64,
    /// Adaptive sampling (exercises the FeedbackBatch path) vs static.
    pub adaptive: bool,
    /// Worker checkpoint cadence in rounds (0 = disabled). Exercises
    /// the `Checkpoint` frame path: workers emit state snapshots that a
    /// plain coordinator must absorb without perturbing bit-identity.
    pub checkpoint_every: u64,
    /// Fault vocabulary the scheduler may enumerate.
    pub faults: FaultSpec,
    /// Historical bugs to re-enable (regression rediscovery).
    pub bugs: ProtocolBugs,
}

impl Default for ScenarioSpec {
    fn default() -> Self {
        ScenarioSpec {
            nodes: 2,
            rounds: 2,
            local_epochs: 1,
            rows: 96,
            seed: 0x15A5_6D00,
            adaptive: true,
            checkpoint_every: 0,
            faults: FaultSpec::none(),
            bugs: ProtocolBugs::default(),
        }
    }
}

/// The judged result of one schedule.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The invariant verdict (meaningful only when `aborted` is None).
    pub verdict: Verdict,
    /// Why the run was cut short, if it was (pruned / depth-capped /
    /// replay divergence) — the verdict of an aborted run is vacuous.
    pub aborted: Option<AbortKind>,
    /// Whether the scheduler flagged a deadlock.
    pub deadlocked: bool,
    /// Fault actions that fired.
    pub counts: FaultCounts,
    /// Undelivered-content leaks at teardown.
    pub leaks: Vec<String>,
    /// The cluster-run error, if the run failed.
    pub run_error: Option<String>,
}

fn skewed(n: u32) -> Dataset {
    let mut b = DatasetBuilder::new(8);
    for i in 0..n as usize {
        let norm = if i % 7 == 0 { 5.0 } else { 0.4 };
        let j = (i % 4) as u32;
        let y = if i % 2 == 0 { 1.0 } else { -1.0 };
        b.push_row(&[(j, y * norm), (4 + j, 0.5 * y * norm)], y)
            .unwrap();
    }
    b.finish()
}

fn objective() -> Objective<LogisticLoss> {
    Objective::new(LogisticLoss, Regularizer::None)
}

fn cluster_cfg(spec: &ScenarioSpec) -> ClusterConfig {
    ClusterConfig {
        nodes: spec.nodes,
        rounds: spec.rounds,
        local_epochs: spec.local_epochs,
        step_size: 0.3,
        importance: ImportanceScheme::LipschitzSmoothness,
        sampling: if spec.adaptive {
            SamplingStrategy::Adaptive
        } else {
            SamplingStrategy::Static
        },
        commit: CommitPolicy::EpochBoundary,
        transport: TransportConfig::InProcess,
        seed: spec.seed,
        checkpoint_every: spec.checkpoint_every,
        ..ClusterConfig::default()
    }
}

/// Everything one exploration reuses across schedules: the dataset,
/// the objective, and the clean sequential oracle run.
struct Ctx {
    ds: Dataset,
    cfg: ClusterConfig,
    oracle: ClusterRun,
}

fn ctx(spec: &ScenarioSpec) -> Ctx {
    let ds = skewed(spec.rows);
    let cfg = cluster_cfg(spec);
    let oracle = run_with_links(&ds, &objective(), &cfg, in_process_links(spec.nodes))
        .expect("oracle run of a valid spec");
    Ctx { ds, cfg, oracle }
}

fn classify(
    report: &SchedReport,
    result: &Result<ClusterRun, String>,
    oracle: &ClusterRun,
) -> Verdict {
    if report.deadlocked {
        return if report.counts.drops > 0 {
            // Losing a required message is *supposed* to starve the
            // protocol; the invariant is that it never corrupts it.
            Verdict::ExpectedDeadlock
        } else {
            Verdict::Violation("deadlock without any drop fault".into())
        };
    }
    let run = match result {
        // Message loss may also surface as a clean failure instead of
        // starvation: the peer finishes (its send "succeeded"), closes,
        // and the waiting side gets `Closed`. Loss may starve or fail a
        // run; only corrupting one is a violation.
        Err(_) if report.counts.drops > 0 => return Verdict::ExpectedDeadlock,
        Err(e) => {
            return Verdict::Violation(format!("cluster run failed without deadlock: {e}"));
        }
        Ok(run) => run,
    };
    if run.model != oracle.model {
        return Verdict::Violation("final model diverged from the sequential oracle".into());
    }
    if run.rounds != oracle.rounds || run.syncs != oracle.syncs {
        return Verdict::Violation("round trace diverged from the sequential oracle".into());
    }
    if run.phi_imbalance != oracle.phi_imbalance || run.balanced != oracle.balanced {
        return Verdict::Violation("balancing outcome diverged from the sequential oracle".into());
    }
    if report.counts.drops == 0 {
        // Without losses the feedback mirror must be bit-identical;
        // duplicated batches may inflate the applied-entry *count*
        // (idempotent absorption), never the mirror state.
        if run.observed_phi_imbalance != oracle.observed_phi_imbalance {
            return Verdict::Violation(
                "feedback mirror diverged: duplicated/reordered feedback was not absorbed \
                 idempotently"
                    .into(),
            );
        }
        if report.counts.dups > 0 {
            if run.feedback_rows < oracle.feedback_rows {
                return Verdict::Violation("feedback entries lost under duplication".into());
            }
        } else if run.feedback_rows != oracle.feedback_rows {
            return Verdict::Violation("feedback entry count changed without any fault".into());
        }
        if !report.leaks.is_empty() {
            return Verdict::Violation(format!(
                "undelivered message content leaked at teardown: {}",
                report.leaks.join("; ")
            ));
        }
    }
    Verdict::Pass
}

/// Runs `spec` once under `chooser`, returning the judged outcome and
/// the chooser (whose decision log the explorer backtracks on).
pub fn run_schedule(spec: &ScenarioSpec, chooser: Chooser) -> (Outcome, Chooser) {
    run_schedule_in(&ctx(spec), spec, chooser)
}

fn run_schedule_in(ctx: &Ctx, spec: &ScenarioSpec, chooser: Chooser) -> (Outcome, Chooser) {
    let (sched, links) = Scheduler::new(
        spec.nodes,
        spec.faults,
        spec.bugs.strict_extra_sends,
        chooser,
    );
    let handle = sched.handle();
    // The coordinator announces its upcoming endpoint drops so the
    // scheduler can sequence pending worker actions against them: under
    // the eager-teardown bug it closes every link right after the
    // driver; fixed code joins workers first (no closes to wait for).
    let upcoming = if spec.bugs.eager_link_teardown {
        spec.nodes
    } else {
        0
    };
    let result = run_with_links_observed(
        &ctx.ds,
        &objective(),
        &ctx.cfg,
        links,
        spec.bugs,
        move || handle.driver_done(upcoming),
    )
    .map_err(|e| format!("{e:?}"));
    let (report, chooser) = sched.finish();
    let aborted = chooser.aborted();
    let verdict = if aborted.is_some() {
        // Cut short by the explorer; nothing to judge.
        Verdict::Pass
    } else {
        classify(&report, &result, &ctx.oracle)
    };
    (
        Outcome {
            verdict,
            aborted,
            deadlocked: report.deadlocked,
            counts: report.counts,
            leaks: report.leaks,
            run_error: result.err(),
        },
        chooser,
    )
}

/// Exhaustively explores `spec` (bounded by `max_decisions` choices per
/// schedule), stopping at the first violation.
pub fn explore_scenario(spec: &ScenarioSpec, max_decisions: usize) -> Exploration {
    let ctx = ctx(spec);
    explore(max_decisions, |ch| {
        let chooser = std::mem::take(ch);
        let (outcome, chooser) = run_schedule_in(&ctx, spec, chooser);
        *ch = chooser;
        outcome.verdict
    })
}

/// Samples `walks` seeded random schedules of `spec` (for configs too
/// large to exhaust). Reports with the same no-silent-truncation stats
/// as [`explore_scenario`]; the walk itself is the declared truncation.
pub fn sample_scenario(
    spec: &ScenarioSpec,
    max_decisions: usize,
    walks: u64,
    seed: u64,
) -> Exploration {
    let ctx = ctx(spec);
    let mut stats = ExploreStats {
        truncated: Some(format!("random walk: {walks} sampled schedules")),
        ..ExploreStats::default()
    };
    let mut counterexample = None;
    for i in 0..walks {
        let chooser = Chooser::walk(seed.wrapping_add(i), max_decisions);
        let (outcome, chooser) = run_schedule_in(&ctx, spec, chooser);
        stats.decisions += chooser.decisions() as u64;
        stats.max_depth_seen = stats.max_depth_seen.max(chooser.decisions() as u64);
        match outcome.aborted {
            Some(AbortKind::DepthCapped) => stats.depth_capped += 1,
            Some(_) => {}
            None => {
                stats.schedules += 1;
                match outcome.verdict {
                    Verdict::Pass => {}
                    Verdict::ExpectedDeadlock => stats.expected_deadlocks += 1,
                    Verdict::Violation(what) => {
                        stats.violations += 1;
                        counterexample = Some(crate::explore::Counterexample {
                            what,
                            choices: chooser.log().iter().map(|&(c, _)| c).collect(),
                        });
                        break;
                    }
                }
            }
        }
    }
    Exploration {
        stats,
        counterexample,
    }
}
