//! The end-to-end run of one workload, in this process: a discarded
//! warm-up, timed reps for `--seconds` spread over several seeded
//! datasets, the correctness checks, and the medians. Tracing is off
//! throughout.

use crate::json::Json;
use crate::spans::Spans;
use crate::spec::END_TO_END;
use crate::stats::{max, median, min};
use crate::workloads::{run_rep, seeded_dataset, Call, Job, Rep, Wiring, Workload};
use std::fmt::Write as _;
use std::time::Instant;

/// Datasets one run trains on, each generated from its own sub-seed of
/// `--seed`.
///
/// The epoch at which a run first reaches its target differs by 4–10 %
/// from one generated dataset to the next (the planted model and the
/// class balance change with the seed), which is as large as the bounds
/// the metrics are gated by. Reporting the median over four datasets
/// halves that spread; more would not fit the per-run time.
pub const DATASETS: usize = 4;

/// What one workload process was asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Seeds the data generator and the train/cluster config.
    pub seed: u64,
    /// How long to keep starting timed reps.
    pub seconds: f64,
    /// Tiny scale: about 2 k rows, 3 epochs, two datasets, one rep each.
    pub smoke: bool,
}

impl Options {
    /// Datasets per run.
    pub fn datasets(&self) -> usize {
        if self.smoke {
            2
        } else {
            DATASETS
        }
    }

    /// Fewest timed reps per dataset, however short `seconds` is. Two,
    /// so the deterministic workloads can compare model bits.
    pub fn min_reps(&self) -> usize {
        if self.smoke {
            1
        } else {
            2
        }
    }

    /// Seed of dataset `j`: disjoint between neighbouring `--seed`s.
    pub fn sub_seed(&self, j: usize) -> u64 {
        self.seed
            .wrapping_mul(self.datasets() as u64)
            .wrapping_add(j as u64)
    }
}

/// The result of one workload process: what the last stdout line says,
/// plus the human-readable report printed above it.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Every check passed and no rep failed.
    pub correct: bool,
    /// Public calls made (warm-up and twins included).
    pub attempted: u64,
    /// Calls that erred or whose output failed a check.
    pub failed: u64,
    /// `(name, value, unit)` for every metric of the selected table.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Lines for a person: per-metric min/max/n, failures, checks.
    pub report: String,
}

impl Outcome {
    /// The one-line JSON object the contract asks for.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Int(self.attempted)),
            ("failed", Json::Int(self.failed)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|&(name, value, unit)| {
                    (
                        name,
                        Json::obj([
                            ("value", Json::Num(value)),
                            ("unit", Json::Str(unit.into())),
                        ]),
                    )
                })),
            ),
        ])
    }
}

/// Tallies calls and failures while a run proceeds.
#[derive(Debug, Default)]
pub struct Tally {
    /// Calls made.
    pub attempted: u64,
    /// Calls that erred or failed a check.
    pub failed: u64,
    /// One line per failure.
    pub notes: Vec<String>,
}

impl Tally {
    /// Runs one rep and applies the per-rep checks: the call succeeds,
    /// the model is finite and within the ceiling, the target is
    /// reached, and (when `reference` is set) the model bits match it.
    pub fn rep(
        &mut self,
        what: &str,
        job: &Job<'_>,
        telemetry: bool,
        reference: Option<u64>,
        spans: &mut Spans,
        parent: Option<usize>,
    ) -> Option<(Rep, Vec<f64>)> {
        let (target, ceiling) = job.w.quality(job.smoke);
        self.call(what, job, telemetry, spans, parent, |rep| {
            rep.failure(target, ceiling).or_else(|| {
                reference.filter(|&h| h != rep.model_hash).map(|h| {
                    format!(
                        "model bits {:016x} differ from the reference {h:016x}",
                        rep.model_hash
                    )
                })
            })
        })
    }

    /// Runs one rep; it fails when the call errs or `check` objects.
    pub fn call(
        &mut self,
        what: &str,
        job: &Job<'_>,
        telemetry: bool,
        spans: &mut Spans,
        parent: Option<usize>,
        check: impl FnOnce(&Rep) -> Option<String>,
    ) -> Option<(Rep, Vec<f64>)> {
        self.attempted += 1;
        let failure = match run_rep(job, telemetry, spans, parent) {
            Err(e) => e,
            Ok((rep, model)) => match check(&rep) {
                None => return Some((rep, model)),
                Some(why) => why,
            },
        };
        self.fail(format!(
            "{} seed {} {what}: {failure}",
            job.w.name, job.seed
        ));
        None
    }

    /// Runs a job cut short of its budget, which need not reach the
    /// target: only a failed call or a non-finite model counts.
    pub fn short_run(
        &mut self,
        what: &str,
        job: &Job<'_>,
        spans: &mut Spans,
        parent: Option<usize>,
    ) -> Option<Rep> {
        self.call(what, job, false, spans, parent, |rep| {
            (!rep.finite).then(|| "model has a non-finite coordinate".into())
        })
        .map(|(rep, _)| rep)
    }

    /// Records a failure found after the call returned.
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED {note}"));
    }

    /// Closes a run's report with the failure count and notes. The run
    /// is correct when nothing failed and it `measured` something.
    pub fn finish(
        self,
        w: &Workload,
        what: &str,
        measured: bool,
        metrics: Vec<(&'static str, f64, &'static str)>,
        mut report: String,
    ) -> Outcome {
        let correct = self.failed == 0 && measured;
        writeln!(
            report,
            "{:<24} failed_share {}/{} ({what}), checks {}",
            w.name,
            self.failed,
            self.attempted,
            if correct { "ok" } else { "FAILED" }
        )
        .expect("writing to a String");
        for note in &self.notes {
            writeln!(report, "{note}").expect("writing to a String");
        }
        Outcome {
            correct,
            attempted: self.attempted,
            failed: self.failed,
            metrics,
            report,
        }
    }
}

/// The twin whose model bits every rep of `w` must reproduce, run as the
/// warm-up: the in-process run for the TCP workload, the TCP run for
/// the fleet (so fleet ≡ tcp ≡ inproc, despite the kill). Other
/// workloads warm up on themselves.
pub fn warm_up_twin(w: &Workload) -> Workload {
    match w.call {
        Call::Cluster {
            transport: Wiring::Tcp,
        } => w.rewired(Wiring::InProcess),
        Call::Cluster {
            transport: Wiring::Fleet,
        } => w.rewired(Wiring::Tcp),
        _ => *w,
    }
}

/// The fleet must recover from exactly the one kill it was dealt.
pub fn check_respawns(w: &Workload, rep: &Rep, tally: &mut Tally) {
    let fleet = Call::Cluster {
        transport: Wiring::Fleet,
    };
    let respawns: u32 = rep
        .cluster
        .iter()
        .flat_map(|c| &c.recovery)
        .map(|slot| slot.respawns)
        .sum();
    if w.call == fleet && respawns != 1 {
        tally.fail(format!(
            "{}: {respawns} respawns, expected exactly 1",
            w.name
        ));
    }
}

/// One-round jobs per dataset from which a cluster workload's `setup_s`
/// is taken.
pub const SETUP_PROBES: usize = 5;

/// Set-up seconds of the cluster job `job`: the median over
/// [`SETUP_PROBES`] runs of the same job cut to one round.
///
/// `ClusterRun` does not time the coordinator's per-round evaluations,
/// so `wall_s − train_s − eval_s` has to estimate them; over a full
/// budget that estimate's error (rounds + 1 passes × a few percent) is
/// larger than the set-up itself and the difference even goes negative.
/// A one-round job wires, admits and tears down exactly the same links
/// and shards, with only two evaluation passes to subtract.
pub fn cluster_setup_s(
    job: &Job<'_>,
    tally: &mut Tally,
    spans: &mut Spans,
    parent: Option<usize>,
) -> f64 {
    let probe = Workload {
        epochs: 1,
        ..*job.w
    };
    let probe = Job { w: &probe, ..*job };
    let setups: Vec<f64> = (0..SETUP_PROBES)
        .filter_map(|_| tally.short_run("set-up probe", &probe, spans, parent))
        .map(|rep| rep.setup_s())
        .collect();
    median(&setups)
}

/// Runs `w` end to end and returns its end-to-end metrics.
pub fn end_to_end(w: &Workload, opts: &Options) -> Outcome {
    let mut spans = Spans::new(w.name, false);
    let mut tally = Tally::default();
    let (target, _) = w.quality(opts.smoke);
    let share = opts.seconds / opts.datasets() as f64;
    // One row per dataset, one entry per `END_TO_END` metric.
    let mut rows: Vec<[f64; 6]> = Vec::new();
    let mut timed_reps = 0;

    for j in 0..opts.datasets() {
        let seed = opts.sub_seed(j);
        let ds = seeded_dataset(&w.data_profile(opts.smoke), seed);
        let job = Job {
            w,
            ds: &ds,
            seed,
            smoke: opts.smoke,
        };
        let mut reference = None;
        if j == 0 {
            // First-touch costs (page cache, allocator growth) are paid
            // once per process, so one discarded rep is enough.
            let twin = warm_up_twin(w);
            let warm = Job { w: &twin, ..job };
            let warm = tally.rep("warm-up", &warm, false, None, &mut spans, None);
            reference = warm.map(|(rep, _)| rep.model_hash);
        }
        let window = Instant::now();
        let probed_setup = matches!(w.call, Call::Cluster { .. })
            .then(|| cluster_setup_s(&job, &mut tally, &mut spans, None));
        let mut reps: Vec<Rep> = Vec::new();
        let mut started = 0;
        // Past the minimum, start a rep only if one as long as the last
        // still fits this dataset's share of the window.
        let mut last_wall = 0.0;
        while started < opts.min_reps() || window.elapsed().as_secs_f64() + last_wall < share {
            started += 1;
            let what = format!("rep {started}");
            let same_bits = reference.filter(|_| w.deterministic);
            if let Some((rep, _)) = tally.rep(&what, &job, false, same_bits, &mut spans, None) {
                check_respawns(w, &rep, &mut tally);
                reference.get_or_insert(rep.model_hash);
                last_wall = rep.wall_s;
                reps.push(rep);
            }
        }
        timed_reps += reps.len();
        if reps.is_empty() {
            continue;
        }
        let over_reps = |f: &dyn Fn(&Rep) -> f64| reps.iter().map(f).collect::<Vec<_>>();
        rows.push([
            median(&over_reps(&|r| {
                r.time_to_target_s(target).unwrap_or(f64::NAN)
            })),
            median(&over_reps(&|r| {
                r.epochs_to_target(target).unwrap_or(f64::NAN)
            })),
            median(&over_reps(&Rep::rows_per_s)),
            median(&over_reps(&|r| r.wall_s)),
            probed_setup.unwrap_or_else(|| median(&over_reps(&Rep::setup_s))),
            // The smallest peak, not the median: what the call needs.
            // Anything above it is a transient the allocator had not yet
            // handed back, or two threads' buffers overlapping once.
            min(&over_reps(&|r| r.peak_rss_mb)),
        ]);
    }
    let columns: Vec<Vec<f64>> = (0..END_TO_END.len())
        .map(|i| rows.iter().map(|row| row[i]).collect())
        .collect();

    let mut report = String::new();
    let mut metrics = Vec::new();
    for (m, xs) in END_TO_END.iter().zip(&columns) {
        let value = if m.name == "peak_rss_mb" {
            min(xs)
        } else {
            median(xs)
        };
        metrics.push((m.name, value, m.unit));
        writeln!(
            report,
            "{:<24} {:<17} {:>16.6} {:<7} bound {:>2.0}%  min {:.6} max {:.6} over {} datasets",
            w.name,
            m.name,
            value,
            m.unit,
            m.bound * 100.0,
            min(xs),
            max(xs),
            xs.len()
        )
        .expect("writing to a String");
    }
    tally.finish(
        w,
        &format!("{timed_reps} timed reps"),
        timed_reps > 0,
        metrics,
        report,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::find;

    #[test]
    fn outcome_json_has_the_contract_keys() {
        let o = Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![("wall_s", 1.25, "s")],
            report: String::new(),
        };
        let j = o.to_json();
        let keys: Vec<&str> = j.members().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(j.get("attempted"), Some(&Json::Int(4)));
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
    }

    #[test]
    fn twins_chain_fleet_to_tcp_to_inproc() {
        let tcp = find("cluster_tcp_adaptive").unwrap();
        let fleet = find("fleet_process_ckpt").unwrap();
        let wired = |t| Call::Cluster { transport: t };
        assert_eq!(warm_up_twin(tcp).call, wired(Wiring::InProcess));
        assert_eq!(warm_up_twin(fleet).call, wired(Wiring::Tcp));
        let seq = find("seq_dense_is").unwrap();
        assert_eq!(warm_up_twin(seq).call, seq.call);
    }

    #[test]
    fn sub_seeds_do_not_overlap_between_neighbouring_seeds() {
        let opts = |seed| Options {
            seed,
            seconds: 0.0,
            smoke: false,
        };
        let a: Vec<u64> = (0..DATASETS).map(|j| opts(1).sub_seed(j)).collect();
        let b: Vec<u64> = (0..DATASETS).map(|j| opts(2).sub_seed(j)).collect();
        assert!(a.iter().all(|s| !b.contains(s)));
        assert_eq!(opts(1).sub_seed(0), opts(1).sub_seed(0));
    }
}
