//! The `bench_e2e` command line.
//!
//! ```text
//! bench_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, in this process
//! bench_e2e [--seed n] [--seconds s] [--trace] [--repeat k] [--smoke]  all six, one child process each
//! bench_e2e --calibrate [--seed n]                                     error curves and target crossings
//! bench_e2e worker --connect <addr> [--die-at-round r] [--quiet]       a fleet worker (spawned, not typed)
//! ```

use crate::json::Json;
use crate::layers::per_layer;
use crate::run::{end_to_end, Options};
use crate::spans::Spans;
use crate::spec::END_TO_END;
use crate::workloads::{find, run_rep, seeded_dataset, Call, Job, Wiring, Workload, WORKLOADS};
use isasgd_cluster::{run_worker, WorkerOptions};
use std::process::{Command, Stdio};

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 1;
/// Default `--seconds`: `BENCHMARK.json`'s `run_seconds`.
pub const DEFAULT_SECONDS: f64 = 10.0;

const USAGE: &str = "\
usage: bench_e2e [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
                 [--trace-out <spans.jsonl>] [--repeat <k>] [--smoke] [--calibrate]
       bench_e2e worker --connect <addr> [--die-at-round <r>] [--quiet]

With --workload, runs that workload in this process and prints one JSON
object as the last line. Without it, runs every workload in a child
process of its own and prints every end-to-end metric by name, unit and
bound; exits 1 if any correctness check fails.";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    trace_out: Option<String>,
    repeat: usize,
    smoke: bool,
    calibrate: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        trace_out: None,
        repeat: 1,
        smoke: false,
        calibrate: false,
    };
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        args.get(*i).cloned().ok_or(format!("{flag} needs a value"))
    };
    while i < args.len() {
        let flag = args[i].as_str();
        match flag {
            "--workload" => a.workload = Some(value(&mut i, flag)?),
            "--seed" => {
                let v = value(&mut i, flag)?;
                a.seed = v.parse().map_err(|_| format!("bad --seed '{v}'"))?;
            }
            "--seconds" => {
                let v = value(&mut i, flag)?;
                let s: f64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("bad --seconds '{v}'"));
                }
                a.seconds = Some(s);
            }
            // `--trace 0|1` is the driver's spelling; a bare `--trace`
            // means 1.
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    a.trace = false;
                    i += 1;
                }
                Some("1") => {
                    a.trace = true;
                    i += 1;
                }
                _ => a.trace = true,
            },
            "--trace-out" => a.trace_out = Some(value(&mut i, flag)?),
            "--repeat" => {
                let v = value(&mut i, flag)?;
                a.repeat = v.parse().map_err(|_| format!("bad --repeat '{v}'"))?;
                if a.repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => a.smoke = true,
            "--calibrate" => a.calibrate = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
        i += 1;
    }
    Ok(a)
}

/// Runs the command line; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    if args.first().map(String::as_str) == Some("worker") {
        return worker(&args[1..]);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return 0;
    }
    let a = match parse_args(args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return 2;
        }
    };
    let opts = Options {
        seed: a.seed,
        seconds: a
            .seconds
            .unwrap_or(if a.smoke { 0.0 } else { DEFAULT_SECONDS }),
        smoke: a.smoke,
    };
    if a.calibrate {
        return calibrate(&opts);
    }
    match &a.workload {
        Some(name) => match find(name) {
            Some(w) => {
                pin_allocator(args);
                one_workload(w, &opts, a.trace, a.trace_out.as_deref())
            }
            None => {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "bench_e2e: unknown workload '{name}'; one of {}",
                    names.join(", ")
                );
                2
            }
        },
        None => all_workloads(&a, &opts),
    }
}

/// `bench_e2e worker …`: one node of the process fleet, exactly as the
/// `isasgd worker` subcommand does it.
fn worker(args: &[String]) -> i32 {
    let mut connect = None;
    let mut die_at_round = None;
    let mut quiet = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--connect" => connect = it.next().cloned(),
            "--die-at-round" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(r) => die_at_round = Some(r),
                None => {
                    eprintln!("bench_e2e worker: --die-at-round needs a round number");
                    return 2;
                }
            },
            "--quiet" => quiet = true,
            other => {
                eprintln!("bench_e2e worker: unknown argument '{other}'");
                return 2;
            }
        }
    }
    let Some(connect) = connect else {
        eprintln!("usage: bench_e2e worker --connect <host:port> [--die-at-round <r>] [--quiet]");
        return 2;
    };
    let opts = WorkerOptions {
        die_at_round,
        ..WorkerOptions::default()
    };
    match run_worker(&connect, &opts) {
        Ok(report) => {
            if !quiet {
                eprintln!(
                    "[worker {}] session complete after {} rounds",
                    report.node, report.rounds
                );
            }
            0
        }
        Err(e) => {
            eprintln!("bench_e2e worker: {e}");
            2
        }
    }
}

/// glibc malloc settings every workload process runs under: the mmap
/// threshold frozen at 5 MiB and the trim threshold at twice that.
///
/// Left to itself glibc raises both thresholds whenever a large block
/// is freed, so whether a rep page-faults its 6–32 MB dataset arrays in
/// afresh depends on what the process allocated before. Measured on one
/// seed, `setup_s` was 0.04–0.05 s on a run's first dataset and
/// 0.02–0.03 s on its last, and the resident set carried up to 30 MB the
/// data generator had freed; both flipped from run to run.
///
/// 5 MiB is where a fresh process's threshold sits during its one run:
/// above the ≤ 4.5 MB models and frames a cluster recycles every round
/// (glibc moves it there on their first free — holding it at the 128 KiB
/// start value instead cost the cluster workloads 40 % of `rows_per_s`),
/// below every dataset array, which a call allocates once and which
/// therefore is mapped and unmapped per rep as in a fresh
/// `isasgd train`. Never trimming (threshold 32 MiB, no trim) was as
/// steady for time but left the generator's garbage in the resident
/// set. The workers a fleet spawns inherit the settings.
const MALLOC_ENV: [(&str, &str); 2] = [
    ("MALLOC_MMAP_THRESHOLD_", "5242880"),
    ("MALLOC_TRIM_THRESHOLD_", "10485760"),
];

/// Replaces this process with itself under [`MALLOC_ENV`], unless it
/// already runs under it (glibc reads the settings at start-up only).
/// Settings the caller made are kept; where the exec fails the run goes
/// on with the allocator as it is.
fn pin_allocator(args: &[String]) {
    let missing: Vec<_> = MALLOC_ENV
        .iter()
        .filter(|(name, _)| std::env::var_os(name).is_none())
        .collect();
    if missing.is_empty() {
        return;
    }
    #[cfg(unix)]
    if let Ok(exe) = std::env::current_exe() {
        use std::os::unix::process::CommandExt;
        let err = Command::new(exe)
            .args(args)
            .envs(missing.iter().map(|(name, value)| (name, value)))
            .exec();
        eprintln!("bench_e2e: could not re-exec under the pinned allocator: {err}");
    }
}

/// One workload in this process; the last stdout line is the result.
fn one_workload(w: &Workload, opts: &Options, trace: bool, trace_out: Option<&str>) -> i32 {
    let outcome = if trace {
        let mut spans = Spans::new(w.name, true);
        let outcome = per_layer(w, opts, &mut spans);
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(path, spans.to_jsonl()) {
                eprintln!("bench_e2e: writing {path}: {e}");
                return 2;
            }
        }
        outcome
    } else {
        end_to_end(w, opts)
    };
    print!("{}", outcome.report);
    println!("{}", outcome.to_json().encode());
    i32::from(!outcome.correct)
}

/// Re-executes this binary for one workload, echoes what it printed and
/// parses its result line. A child that dies or prints no result is a
/// failed workload, never a skipped one.
fn child(w: &Workload, a: &Args, opts: &Options, trace: bool) -> Result<Json, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    if let (true, Some(path)) = (trace, &a.trace_out) {
        // One span file per workload, next to the requested path.
        cmd.args(["--trace-out", &format!("{path}.{}", w.name)]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {}: {e}", w.name))?;
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let last = lines.pop().unwrap_or("");
    for l in &lines {
        println!("{l}");
    }
    let result = Json::parse(last)
        .map_err(|e| format!("{}: no result line ({e}); exit {}", w.name, out.status))?;
    if result.get("correct").and_then(Json::as_bool) != Some(true) {
        return Err(format!("{}: a correctness check failed", w.name));
    }
    Ok(result)
}

fn metric(result: &Json, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Json::as_f64)
        .unwrap_or(f64::NAN)
}

/// All six workloads, `--repeat` sets of them, each in its own child.
fn all_workloads(a: &Args, opts: &Options) -> i32 {
    let mut ok = true;
    let mut sets: Vec<Vec<(&'static str, Json)>> = Vec::new();
    let mut layers: Vec<(&'static str, Json)> = Vec::new();
    for set in 0..a.repeat {
        println!("== set {} of {}: seed {} ==", set + 1, a.repeat, opts.seed);
        let mut results = Vec::new();
        for w in WORKLOADS {
            match child(w, a, opts, false) {
                Ok(r) => results.push((w.name, r)),
                Err(e) => {
                    println!("FAILED {e}");
                    ok = false;
                }
            }
        }
        report_speedup(&results);
        sets.push(results);
    }
    if a.trace {
        println!("== traced run: per-layer metrics ==");
        for w in WORKLOADS {
            match child(w, a, opts, true) {
                Ok(r) => layers.push((w.name, r)),
                Err(e) => {
                    println!("FAILED {e}");
                    ok = false;
                }
            }
        }
    }
    if a.repeat > 1 {
        ok &= sets_agree(&sets);
    }
    let summary = Json::obj([
        ("correct", Json::Bool(ok)),
        (
            "end_to_end",
            Json::obj(
                sets.last()
                    .into_iter()
                    .flatten()
                    .map(|(n, r)| (*n, r.clone())),
            ),
        ),
        ("per_layer", Json::obj(layers)),
    ]);
    println!("{}", summary.encode());
    i32::from(!ok)
}

/// Prints the paper's headline ratio with both bases. Reported, not
/// gated: speeding up only the uniform arm would lower it without
/// harming anyone.
fn report_speedup(results: &[(&'static str, Json)]) {
    let t = |name: &str| {
        results
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, r)| metric(r, "time_to_target_s"))
    };
    if let (Some(uni), Some(is)) = (t("hogwild_sparse_uniform"), t("hogwild_sparse_is")) {
        println!(
            "is_speedup {:.4} = time_to_target_s(hogwild_sparse_uniform) {uni:.6} s / time_to_target_s(hogwild_sparse_is) {is:.6} s",
            uni / is
        );
    }
}

/// True when every end-to-end metric of every workload agrees between
/// the first set and each later one within the metric's own bound;
/// prints the pairs that do not.
fn sets_agree(sets: &[Vec<(&'static str, Json)>]) -> bool {
    let mut agree = true;
    let (first, rest) = sets.split_first().expect("at least one set");
    for (k, later) in rest.iter().enumerate() {
        for (name, a) in first {
            let Some((_, b)) = later.iter().find(|(n, _)| n == name) else {
                println!("DISAGREE {name}: missing from set {}", k + 2);
                agree = false;
                continue;
            };
            // Same seed, same data: a deterministic workload must cross
            // its target at exactly the same epoch in every set.
            let exact = find(name).is_some_and(|w| w.deterministic);
            for m in END_TO_END {
                let (x, y) = (metric(a, m.name), metric(b, m.name));
                let rel = (x - y).abs() / x.abs().min(y.abs());
                let bound = if exact && m.name == "epochs_to_target" {
                    0.0
                } else {
                    m.bound
                };
                // NaN (a missing value) must not pass.
                if rel.partial_cmp(&bound) != Some(std::cmp::Ordering::Less) && x != y {
                    println!(
                        "DISAGREE {name} {}: set 1 {x} vs set {} {y} ({:.1}% apart, bound {:.0}%)",
                        m.name,
                        k + 2,
                        rel * 100.0,
                        bound * 100.0
                    );
                    agree = false;
                }
            }
        }
    }
    if agree {
        println!("sets agree on every end-to-end metric within its bound");
    }
    agree
}

/// Prints, per workload, the error curve of one rep on every dataset of
/// `seed` and `seed + 1` and where the frozen target crosses it, so the
/// constants in `workloads.rs` can be re-derived.
fn calibrate(opts: &Options) -> i32 {
    let mut ok = true;
    for w in WORKLOADS {
        let (target, ceiling) = w.quality(opts.smoke);
        let budget = w.budget(opts.smoke) as f64;
        // The in-process twin has the fleet's and the TCP run's exact
        // error curve without their processes and sockets.
        let twin = match w.call {
            Call::Cluster { .. } => w.rewired(Wiring::InProcess),
            Call::Train { .. } => *w,
        };
        for run in [
            *opts,
            Options {
                seed: opts.seed + 1,
                ..*opts
            },
        ] {
            for seed in (0..run.datasets()).map(|j| run.sub_seed(j)) {
                let ds = seeded_dataset(&w.data_profile(opts.smoke), seed);
                let job = Job {
                    w: &twin,
                    ds: &ds,
                    seed,
                    smoke: opts.smoke,
                };
                let mut spans = Spans::new(w.name, false);
                let rep = match run_rep(&job, false, &mut spans, None) {
                    Ok((rep, _)) => rep,
                    Err(e) => {
                        println!("{} seed {seed}: FAILED {e}", w.name);
                        ok = false;
                        continue;
                    }
                };
                let curve: Vec<String> = rep
                    .trace
                    .points
                    .iter()
                    .map(|p| format!("{:.4}", p.error_rate))
                    .collect();
                println!(
                    "{} seed {seed}: error by epoch [{}]",
                    w.name,
                    curve.join(" ")
                );
                let crossing = rep.epochs_to_target(target);
                let share = crossing.map(|e| e / budget);
                println!(
                    "{} seed {seed}: target {target} crosses at epoch {} of {budget} ({}), {:.3} s of {:.3} s; final {:.4} (ceiling {ceiling}); rep wall {:.3} s",
                    w.name,
                    crossing.map_or("never".into(), |e| format!("{e:.2}")),
                    share.map_or("-".into(), |s| format!("{:.0}%", s * 100.0)),
                    rep.time_to_target_s(target).unwrap_or(f64::NAN),
                    rep.train_s,
                    rep.final_err,
                    rep.wall_s,
                );
                ok &= share.is_some_and(|s| (0.25..=0.75).contains(&s)) && rep.final_err <= ceiling;
            }
        }
    }
    if !ok {
        println!("calibration: a crossing is outside 25-75% of its budget, or a run ends above its ceiling");
    }
    i32::from(!ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_drivers_spelling() {
        let a = parse_args(&args(
            "--workload seq_dense_is --seed 9 --seconds 8 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("seq_dense_is"));
        assert_eq!((a.seed, a.seconds, a.trace), (9, Some(8.0), true));
        let a = parse_args(&args("--trace 0 --seed 2")).unwrap();
        assert_eq!((a.trace, a.seed), (false, 2));
    }

    #[test]
    fn bare_trace_and_switches() {
        let a = parse_args(&args("--trace --smoke --repeat 2 --trace-out s.jsonl")).unwrap();
        assert!(a.trace && a.smoke);
        assert_eq!(a.repeat, 2);
        assert_eq!(a.trace_out.as_deref(), Some("s.jsonl"));
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "--seed x",
            "--seconds -1",
            "--repeat 0",
            "--frobnicate",
            "--workload",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
        assert_eq!(main(&args("--workload nope")), 2);
        assert_eq!(main(&args("worker")), 2);
        assert_eq!(main(&args("worker --connect 127.0.0.1:1 --quiet")), 2);
    }

    #[test]
    fn sets_agree_uses_each_metrics_bound() {
        let result = |wall: f64| {
            Json::obj([(
                "metrics",
                Json::obj(END_TO_END.iter().map(|m| {
                    let v = if m.name == "wall_s" { wall } else { 1.0 };
                    (m.name, Json::obj([("value", Json::Num(v))]))
                })),
            )])
        };
        let set = |wall: f64| vec![("seq_dense_is", result(wall))];
        assert!(sets_agree(&[set(1.0), set(1.05)]));
        assert!(!sets_agree(&[set(1.0), set(1.5)]));
        assert!(!sets_agree(&[set(1.0), set(f64::NAN)]));
        assert!(!sets_agree(&[set(1.0), vec![]]));
        // Count metrics of a deterministic workload must repeat exactly.
        let mut off = set(1.0);
        off[0].1 = Json::obj([(
            "metrics",
            Json::obj(END_TO_END.iter().map(|m| {
                let v = if m.name == "epochs_to_target" {
                    1.001
                } else {
                    1.0
                };
                (m.name, Json::obj([("value", Json::Num(v))]))
            })),
        )]);
        assert!(!sets_agree(&[set(1.0), off]));
    }
}
