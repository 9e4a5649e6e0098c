//! End-to-end tests driving the compiled `isasgd` binary:
//! gen → info → train (with holdout + model save) → predict.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_isasgd"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isasgd_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

/// Generates the small News20-like training file every flag test uses.
fn gen_data(dir: &Path) -> PathBuf {
    let data = dir.join("d.svm");
    let out = bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.05", "--training"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    data
}

#[test]
fn full_pipeline_gen_info_train_predict() {
    let dir = tmpdir("pipeline");
    let data = dir.join("d.svm");
    let model = dir.join("m.json");

    // gen
    let out = bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.05", "--training"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(data.exists());

    // info
    let out = bin().arg("info").arg(&data).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("psi/n"), "info output missing ψ: {text}");
    assert!(text.contains("avg degree"), "info output missing Δ̄: {text}");
    assert!(
        text.contains("values             one per non-zero"),
        "a news20 file's Gaussian values are stored one per non-zero: {text}"
    );

    // train with holdout and model output: the cluster report, then the
    // engine report (whose model the predict step below reads)
    for (how, banner) in [
        (
            ["--algo", "is-sgd", "--cluster", "2"],
            "transport=inproc nodes=2",
        ),
        (["--algo", "is-asgd", "--threads", "2"], "algorithm=IS-ASGD"),
    ] {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(how)
            .args(["--epochs", "5", "--holdout", "0.2", "--quiet", "--model"])
            .arg(&model)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "train {how:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains(banner), "{how:?}: {text}");
        let holdout = text.lines().last().unwrap_or_default();
        assert!(
            holdout.starts_with("holdout_n=40 holdout_obj=") && holdout.contains(" holdout_err="),
            "{how:?}: {text}"
        );
        assert!(model.exists());
    }

    // predict against the training file
    let preds = dir.join("preds.txt");
    let out = bin()
        .arg("predict")
        .arg(&data)
        .arg("--model")
        .arg(&model)
        .arg("--out")
        .arg(&preds)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "predict failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("error_rate="), "{text}");
    // One prediction line per sample, each "±1 margin".
    let lines: Vec<String> = std::fs::read_to_string(&preds)
        .unwrap()
        .lines()
        .map(String::from)
        .collect();
    assert_eq!(lines.len(), 200);
    for l in &lines {
        let mut parts = l.split_whitespace();
        let p: f64 = parts.next().unwrap().parse().unwrap();
        let m: f64 = parts.next().unwrap().parse().unwrap();
        assert!(p == 1.0 || p == -1.0);
        assert!(m.is_finite());
    }

    // The data file is the positional argument and nothing else:
    // `--data` names no file (usage, where the three used to run), and
    // beside a positional file it is one more unknown flag.
    for cmd in ["train", "predict", "info"] {
        let run = |positional: Option<&Path>| {
            let out = bin()
                .arg(cmd)
                .args(positional)
                .arg("--data")
                .arg(&data)
                .args(["--model".as_ref(), model.as_os_str()])
                .output()
                .unwrap();
            assert_eq!(out.status.code(), Some(2), "{cmd}");
            String::from_utf8_lossy(&out.stderr).into_owned()
        };
        let err = run(None);
        assert!(
            err.contains(&format!("usage: isasgd {cmd} <data.svm>")),
            "{err}"
        );
        let err = run(Some(&data));
        assert!(err.contains("unknown flags: --data"), "{err}");
    }

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn train_all_solvers_smoke() {
    let dir = tmpdir("solvers");
    let data = dir.join("d.svm");
    let out = bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.03", "--training"])
        .output()
        .unwrap();
    assert!(out.status.success());

    for algo in ["sgd", "is-sgd", "asgd", "is-asgd", "svrg"] {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(["--algo", algo, "--epochs", "2", "--quiet", "--step", "0.1"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{algo} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("final_err="), "{algo}: {text}");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A τ past the epoch length defers every update to the barrier; it used
/// to abort the process allocating τ + 1 queue slots.
#[test]
fn a_huge_tau_trains() {
    let dir = tmpdir("huge-tau");
    let data = gen_data(&dir);
    let out = bin()
        .arg("train")
        .arg(&data)
        .args(["--tau", "1000000000", "--workers", "2", "--epochs", "2"])
        .args(["--step", "0.1", "--quiet"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("final_obj="));
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn sampling_strategies_end_to_end() {
    // The acceptance path: `train --sampling adaptive` works end-to-end
    // and its per-epoch trace differs from `--sampling static` on the
    // same (importance-skewed) dataset and seed.
    let dir = tmpdir("sampling");
    let data = gen_data(&dir);

    let run = |sampling: &str| {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args([
                "--algo",
                "is-sgd",
                "--epochs",
                "4",
                "--step",
                "0.2",
                "--seed",
                "7",
                "--sampling",
                sampling,
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--sampling {sampling} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Per-epoch progress lines go to stderr; the summary to stdout.
        let summary = String::from_utf8_lossy(&out.stdout).to_string();
        let trace = String::from_utf8_lossy(&out.stderr).to_string();
        assert!(summary.contains("final_obj="), "{summary}");
        (summary, trace)
    };

    let (stat_summary, stat_trace) = run("static");
    let (adap_summary, adap_trace) = run("adaptive");
    let (_uni_summary, _) = run("uniform");
    assert_ne!(
        stat_trace, adap_trace,
        "adaptive trace must be distinguishable from static"
    );
    assert_ne!(stat_summary, adap_summary);

    // Rejected value reports a helpful error.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo",
            "is-sgd",
            "--epochs",
            "1",
            "--sampling",
            "magic",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("sampling"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn commit_flag_end_to_end() {
    // `--commit` steers the adaptive feedback protocol: intra-epoch
    // commits must produce a trace distinguishable from epoch-boundary
    // commits.
    let dir = tmpdir("feedback");
    let data = gen_data(&dir);

    let run = |extra: &[&str]| {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args([
                "--algo",
                "is-sgd",
                "--epochs",
                "4",
                "--step",
                "0.2",
                "--seed",
                "7",
                "--sampling",
                "adaptive",
            ])
            .args(extra)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{extra:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        // Compare only the final objective: raw stdout/stderr embed
        // wall-clock fields that differ between any two runs, which
        // would make an inequality assertion vacuous.
        let summary = String::from_utf8_lossy(&out.stdout).to_string();
        summary
            .split_whitespace()
            .find(|t| t.starts_with("final_obj="))
            .unwrap_or_else(|| panic!("no final_obj in summary: {summary}"))
            .to_string()
    };

    let epoch_obj = run(&["--commit", "epoch"]);
    let everyk_obj = run(&["--commit", "every-32"]);
    assert_ne!(
        epoch_obj, everyk_obj,
        "intra-epoch commits must change the trajectory"
    );

    // `--commit every-k` without adaptive sampling used to be silently
    // accepted (the sampler ignores feedback, so the run degraded to
    // epoch-boundary semantics); it must be rejected with a pointer at
    // the fix.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo", "is-sgd", "--epochs", "2", "--quiet", "--commit", "every-k",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "every-k without adaptive sampling must be a config error"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("adaptive"), "error must name the fix: {err}");

    // Threaded runs consume intra-epoch commits too (the streamed
    // worker schedules): the summary's cumulative sampler commit count
    // must exceed one-per-worker-per-epoch.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo",
            "is-asgd",
            "--threads",
            "2",
            "--epochs",
            "3",
            "--step",
            "0.2",
            "--seed",
            "7",
            "--sampling",
            "adaptive",
            "--commit",
            "every-32",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let summary = String::from_utf8_lossy(&out.stdout).to_string();
    let commits: u64 = summary
        .split_whitespace()
        .find_map(|t| t.strip_prefix("sampler_commits="))
        .unwrap_or_else(|| panic!("no sampler_commits in summary: {summary}"))
        .parse()
        .unwrap();
    assert!(
        commits > 2 * 3,
        "threaded every-k must commit inside epochs, got {commits}"
    );

    // A rejected value reports a helpful error.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args(["--algo", "is-sgd", "--epochs", "1", "--quiet"])
        .args(["--commit", "never"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("commit"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cluster_transports_produce_identical_round_traces() {
    // The PR-4 acceptance path: `train --cluster-transport tcp` on
    // localhost must produce a bit-identical round trace to
    // `--cluster-transport inproc` for the same seed — the per-round
    // lines carry no wall-clock fields, so the comparison is textual.
    let dir = tmpdir("cluster");
    let data = gen_data(&dir);

    let run = |transport: &str| {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args([
                "--algo",
                "is-sgd",
                "--cluster",
                "3",
                "--cluster-transport",
                transport,
                "--sampling",
                "adaptive",
                "--epochs",
                "4",
                "--step",
                "0.2",
                "--seed",
                "7",
            ])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "--cluster-transport {transport} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let trace: Vec<String> = String::from_utf8_lossy(&out.stderr)
            .lines()
            .filter(|l| l.starts_with("[round") || l.starts_with("[feedback"))
            .map(String::from)
            .collect();
        let summary = String::from_utf8_lossy(&out.stdout).to_string();
        (trace, summary)
    };

    let (inproc_trace, inproc_summary) = run("inproc");
    let (tcp_trace, tcp_summary) = run("tcp");
    assert!(
        inproc_trace.len() >= 5,
        "expected 4 rounds + initial point, got {inproc_trace:?}"
    );
    assert_eq!(
        inproc_trace, tcp_trace,
        "tcp round trace must be bit-identical to inproc"
    );
    assert!(
        inproc_summary.contains("transport=inproc"),
        "{inproc_summary}"
    );
    assert!(tcp_summary.contains("transport=tcp"), "{tcp_summary}");
    assert!(
        tcp_summary.contains("algorithm=Cluster-AIS-SGD"),
        "{tcp_summary}"
    );

    // Bad transport name is caught with the flag named.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args(["--cluster-transport", "udp", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("cluster-transport"));

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn cluster_sampler_follows_algo_unless_sampling_names_one() {
    // `--algo` picks the cluster's sampler by the engine's rule (sgd:
    // uniform, is-sgd: static) and an explicit `--sampling` wins — the
    // ASGD-vs-IS-ASGD comparison must be runnable from the flags that
    // name it. The cluster arm used to hard-code `static`.
    let dir = tmpdir("cluster_algo");
    let data = gen_data(&dir);
    let run = |tag: &str, flags: &[&str]| {
        let model = dir.join(format!("{tag}.json"));
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(flags)
            .args(["--cluster", "2", "--epochs", "3", "--seed", "7", "--quiet"])
            .arg("--model")
            .arg(&model)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{flags:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = String::from_utf8_lossy(&out.stdout).to_string();
        // The saved model minus its `algorithm` label: the weights.
        let saved = std::fs::read_to_string(&model).unwrap();
        let weights = saved[saved.find("\"indices\"").expect("sparse model JSON")..].to_string();
        (summary, weights)
    };
    let (sgd, sgd_w) = run("sgd", &["--algo", "sgd"]);
    let (is, is_w) = run("is", &["--algo", "is-sgd"]);
    let (forced, forced_w) = run("forced", &["--algo", "sgd", "--sampling", "static"]);
    assert!(sgd.contains("algorithm=Cluster-SGD "), "{sgd}");
    assert!(is.contains("algorithm=Cluster-IS-SGD "), "{is}");
    assert!(forced.contains("algorithm=Cluster-IS-SGD "), "{forced}");
    assert_ne!(sgd_w, is_w, "uniform and static nodes must train apart");
    assert_eq!(forced_w, is_w, "--sampling wins over --algo");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn squared_loss_trains_on_the_engine_and_across_the_process_boundary() {
    // `--loss` takes every name `with_loss!` lists — the same list a
    // worker process resolves the session's loss from.
    let dir = tmpdir("loss_squared");
    let data = gen_data(&dir);
    for how in [
        &["--algo", "is-sgd"][..],
        &["--cluster", "2", "--cluster-transport", "process"][..],
    ] {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(how)
            .args(["--loss", "squared", "--step", "0.05", "--epochs", "3"])
            .args(["--seed", "7", "--quiet"])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{how:?}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let summary = String::from_utf8_lossy(&out.stdout);
        // Squared loss starts at ½ on the zero model; training lowers it.
        let obj: f64 = summary
            .split("final_obj=")
            .nth(1)
            .and_then(|t| t.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("no final_obj in {summary}"));
        assert!(obj < 0.5, "{how:?}: {summary}");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn simulated_tau_execution() {
    let dir = tmpdir("tau");
    let data = dir.join("d.svm");
    bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.03", "--training"])
        .output()
        .unwrap();
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo",
            "is-asgd",
            "--tau",
            "16",
            "--workers",
            "4",
            "--epochs",
            "2",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn explicit_one_worker_async_runs_are_reproducible() {
    // `--threads 1` / `--tau 0` used to read as "flag absent" and fall
    // through to the racy two-thread default. An explicit one-worker run
    // is deterministic: byte-identical model files run to run, and the
    // same weights as the sequential solver on the same draw stream.
    let dir = tmpdir("one_worker");
    let data = dir.join("d.svm");
    let out = bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.05", "--training"])
        .args(["--seed", "3"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let train = |tag: &str, flags: &str| -> String {
        let model = dir.join(format!("{tag}.json"));
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(flags.split_whitespace())
            .args(["--seed", "7", "--epochs", "4", "--quiet", "--model"])
            .arg(&model)
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{tag}: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        std::fs::read_to_string(model).unwrap()
    };
    // The header names the algorithm; the weights follow it.
    let weights = |file: &str| file[file.find("\"indices\"").unwrap()..].to_string();

    let adaptive = "--sampling adaptive --commit every-16";
    let threads_1 = |tag: &str| train(tag, &format!("--algo is-asgd --threads 1 {adaptive}"));
    let first = threads_1("t1_0");
    for i in 1..8 {
        assert_eq!(first, threads_1(&format!("t1_{i}")), "run {i} diverged");
    }
    let seq = train("seq", &format!("--algo is-sgd {adaptive}"));
    assert_eq!(weights(&first), weights(&seq), "--threads 1 is sequential");
    let two = train("t2", &format!("--algo is-asgd --threads 2 {adaptive}"));
    assert_ne!(weights(&first), weights(&two), "--threads 2 still shards");

    let tau_0 = train("tau0", "--algo is-asgd --tau 0 --workers 1");
    let is_sgd = train("is_sgd", "--algo is-sgd");
    assert_eq!(weights(&tau_0), weights(&is_sgd), "--tau 0 is sequential");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn helpful_errors_and_help() {
    // No args → usage, exit 2.
    let out = bin().output().unwrap();
    assert_eq!(out.status.code(), Some(2));

    // --help works for every command.
    for cmd in ["train", "predict", "info", "gen", "worker", "report"] {
        let out = bin().args([cmd, "--help"]).output().unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains(cmd));
    }

    // Unknown command names itself; the model checker is a test suite
    // (`cargo test -p isasgd-check`), not a command.
    for cmd in ["frobnicate", "check"] {
        let out = bin().arg(cmd).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(&format!("unknown command '{cmd}'")), "{err}");
    }

    // Typo'd flag is caught.
    let out = bin()
        .args(["gen", "--out", "/tmp/x.svm", "--sclae", "1"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("sclae"));

    // A scale shrinks (n, d), so anything outside (0, 1] is refused
    // before a file is written: `inf` and `1e30` would saturate the
    // sizes, `nan`, `0` and `-1` collapse them to the 8-row floor.
    let dir = tmpdir("scale");
    let data = dir.join("x.svm");
    for scale in ["inf", "1e30", "nan", "0", "-1", "1.5"] {
        let out = bin()
            .args(["gen", "--profile", "news20", "--scale", scale, "--out"])
            .arg(&data)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "--scale {scale}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("bad value '{scale}' for --scale")),
            "--scale {scale}: {err}"
        );
        assert!(!data.exists(), "--scale {scale} wrote a file");
    }
    std::fs::remove_dir_all(dir).ok();

    // Deleted options are refused, never silently ignored: the
    // observation-model and metrics-dump flags are unknown and SAGA is
    // no solver name.
    for (args, want) in [
        (["--obs-model", "gradnorm"], "unknown flags: --obs-model"),
        (["--metrics-out", "m.json"], "unknown flags: --metrics-out"),
        (["--algo", "saga"], "bad value 'saga' for --algo"),
    ] {
        let out = bin()
            .args(["train", "/no/such/data.svm"])
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(want), "{args:?}: {err}");
    }

    // A flag conflict is refused before any file is opened: neither path
    // exists, and the error is the conflict, not a read failure.
    let out = bin()
        .args(["train", "/no/such/data.svm", "--cluster", "2"])
        .args(["--init-model", "/no/such/model.json"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("--init-model") && err.contains("not supported with --cluster"),
        "{err}"
    );
    assert!(
        !err.contains("data.svm") && !err.contains("No such file"),
        "{err}"
    );
}

/// A binary-profile file holds one value at every non-zero: `info`
/// reports it stored once, and the value it read.
#[test]
fn info_reports_a_binary_profile_value_stored_once() {
    let dir = tmpdir("binary");
    let data = dir.join("k.svm");
    let out = bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "kdd_algebra", "--scale", "0.05", "--training"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = std::fs::read_to_string(&data).unwrap();
    let value = text
        .split_ascii_whitespace()
        .nth(1)
        .unwrap()
        .split_once(':')
        .unwrap()
        .1;
    let out = bin().arg("info").arg(&data).output().unwrap();
    assert!(out.status.success());
    let report = String::from_utf8_lossy(&out.stdout);
    let want = format!("values             one shared value {value}, stored once");
    assert!(report.contains(&want), "want {want:?} in {report}");
    std::fs::remove_dir_all(dir).ok();
}

/// A zero-row file has no mean, sup or inf to report: `info` refuses it
/// the way `train` does, before printing anything.
#[test]
fn info_refuses_an_empty_file_like_train() {
    let dir = tmpdir("empty");
    let data = dir.join("e.svm");
    std::fs::write(&data, "").unwrap();
    for cmd in ["info", "train"] {
        let out = bin().arg(cmd).arg(&data).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{cmd}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            err.trim(),
            format!("isasgd {cmd}: dataset is empty"),
            "{cmd}"
        );
        assert!(out.stdout.is_empty(), "{cmd} printed a report");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Rows with no features leave nothing to learn: the engine and the
/// cluster refuse dimension 0 by name instead of printing flat epochs
/// and exiting 0.
#[test]
fn a_featureless_dataset_is_refused() {
    let dir = tmpdir("featureless");
    let data = dir.join("f.svm");
    std::fs::write(&data, "+1\n-1\n+1\n").unwrap();
    for runtime in [
        &["--algo", "is-sgd"][..],
        &["--algo", "asgd"],
        &["--algo", "is-sgd", "--cluster", "2"],
    ] {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(runtime)
            .args(["--epochs", "2", "--quiet"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{runtime:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("dataset dimension is 0"), "{runtime:?}: {err}");
        assert!(out.stdout.is_empty(), "{runtime:?} printed a summary");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Sessions carry `--local-epochs` as a u32: 2^32 used to truncate to
/// zero, so no worker trained, every round printed the initial
/// objective and the run exited 0. Now the count is refused by value.
#[test]
fn local_epochs_past_u32_are_refused() {
    let dir = tmpdir("local_epochs");
    let data = gen_data(&dir);
    let out = bin()
        .arg("train")
        .arg(&data)
        .args(["--cluster", "2", "--local-epochs", "4294967296"])
        .args(["--epochs", "2", "--algo", "is-sgd", "--quiet"])
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains("local_epochs = 4294967296"), "{err}");
    assert!(out.stdout.is_empty(), "printed a summary");
    std::fs::remove_dir_all(dir).ok();
}

/// A step past the stability edge is an error that names the epoch, on
/// the engine and on the cluster alike: exit 2, no summary line with a
/// NaN objective, no model file. The same flags with a sane step still
/// train and save.
#[test]
fn a_diverged_run_is_an_error_not_a_nan_model() {
    let dir = tmpdir("diverged");
    let data = gen_data(&dir);
    let model = dir.join("m.json");
    for runtime in [
        &["--algo", "is-sgd"][..],
        &["--algo", "sgd", "--cluster", "2"],
    ] {
        let train = |step: &str| {
            bin()
                .arg("train")
                .arg(&data)
                .args(runtime)
                .args(["--loss", "squared", "--epochs", "3", "--quiet"])
                .args(["--step", step, "--model"])
                .arg(&model)
                .output()
                .unwrap()
        };
        let out = train("1e6");
        assert_eq!(out.status.code(), Some(2), "{runtime:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("diverged: objective became non-finite at epoch 1 (step 1000000)"),
            "{runtime:?}: {err}"
        );
        assert!(out.stdout.is_empty(), "{runtime:?} printed a summary");
        assert!(!model.exists(), "{runtime:?} wrote a model");

        let out = train("0.01");
        assert!(out.status.success(), "{runtime:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("final_obj=0."));
        assert!(model.exists());
        std::fs::remove_file(&model).unwrap();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A four-row file under an absurd step: the margins overflow, so the
/// RMSE is infinite from epoch 1 while the objective stays finite. Such
/// a run used to print `rmse=inf`, save its model and exit 0; now it
/// exits 2 naming the RMSE, prints no summary and writes no model.
fn refuses_an_infinite_rmse(runtime: &[&str]) {
    let dir = tmpdir(&format!("rmse_{}", runtime.len()));
    let data = dir.join("tiny.svm");
    std::fs::write(
        &data,
        "+1 1:1 2:0.5\n-1 1:-1 3:0.25\n+1 2:1 3:1\n-1 1:-0.5 2:-1\n",
    )
    .unwrap();
    let model = dir.join("m.json");
    let out = bin()
        .arg("train")
        .arg(&data)
        .args(runtime)
        .args(["--seed", "7", "--quiet", "--model"])
        .arg(&model)
        .output()
        .unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{runtime:?}: {err}");
    assert!(
        err.contains("diverged: rmse became non-finite at epoch 1 (step "),
        "{runtime:?}: {err}"
    );
    assert!(out.stdout.is_empty(), "{runtime:?} printed a summary");
    assert!(!model.exists(), "{runtime:?} wrote a model");
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn an_infinite_rmse_is_refused_on_the_engine() {
    refuses_an_infinite_rmse(&["--step", "1e308"]);
}

#[test]
fn an_infinite_rmse_is_refused_on_the_cluster() {
    refuses_an_infinite_rmse(&["--cluster", "2", "--step", "1e300"]);
}

/// η must be finite and ≥ 0, on the engine and on the cluster alike: a
/// negative η used to train an anti-regularized model and exit 0, and a
/// non-finite one failed as a sampling error about a NaN weight.
#[test]
fn a_negative_or_non_finite_eta_is_refused() {
    let dir = tmpdir("eta");
    let data = gen_data(&dir);
    for runtime in [
        &["--algo", "is-sgd"][..],
        &["--algo", "sgd", "--cluster", "2"],
    ] {
        let train = |eta: &str| {
            bin()
                .arg("train")
                .arg(&data)
                .args(runtime)
                .args(["--epochs", "3", "--quiet", "--eta", eta])
                .output()
                .unwrap()
        };
        for eta in ["-1", "nan", "inf"] {
            let out = train(eta);
            assert_eq!(out.status.code(), Some(2), "{runtime:?} --eta {eta}");
            let err = String::from_utf8_lossy(&out.stderr);
            assert!(
                err.contains("regularization factor η") && err.contains("finite and ≥ 0"),
                "{runtime:?} --eta {eta}: {err}"
            );
            assert!(
                out.stdout.is_empty(),
                "{runtime:?} --eta {eta} printed a summary"
            );
        }
        let out = train("0");
        assert!(out.status.success(), "{runtime:?} --eta 0");
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn warm_start_resumes_training() {
    let dir = tmpdir("warm");
    let data = dir.join("d.svm");
    let m1 = dir.join("m1.json");
    let m2 = dir.join("m2.json");
    bin()
        .args(["gen", "--out"])
        .arg(&data)
        .args(["--profile", "news20", "--scale", "0.03", "--training"])
        .output()
        .unwrap();
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo", "sgd", "--epochs", "3", "--quiet", "--step", "0.2", "--model",
        ])
        .arg(&m1)
        .output()
        .unwrap();
    assert!(out.status.success());
    let obj1: f64 = String::from_utf8_lossy(&out.stdout)
        .split("final_obj=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    // Resume for 3 more epochs; the final objective must not regress.
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo",
            "sgd",
            "--epochs",
            "3",
            "--quiet",
            "--step",
            "0.2",
            "--init-model",
        ])
        .arg(&m1)
        .arg("--model")
        .arg(&m2)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let obj2: f64 = String::from_utf8_lossy(&out.stdout)
        .split("final_obj=")
        .nth(1)
        .unwrap()
        .split_whitespace()
        .next()
        .unwrap()
        .parse()
        .unwrap();
    assert!(obj2 <= obj1 + 1e-9, "resume {obj2} vs first {obj1}");
    assert!(m2.exists());
    std::fs::remove_dir_all(dir).ok();
}
