//! End-to-end tests of the cross-process distributed runtime with
//! **genuine subprocesses**: `isasgd train --cluster-transport process`
//! spawns real `isasgd worker` OS processes that handshake over real
//! TCP and run the round protocol.
//!
//! Pinned here (CI runs this file release-mode so the spawn/handshake
//! path is exercised optimized on every PR):
//! * the 4-way equivalence — process ≡ tcp ≡ inproc round traces and
//!   saved models across {average, weighted} × {static, adaptive}
//!   (the sequential-engine leg is pinned bitwise at the library level
//!   in `isasgd-cluster/tests/process_fleet.rs`);
//! * kill-a-worker: `--chaos-kill` + `--on-worker-loss respawn`
//!   completes identically to an undisturbed run, `fail` exits with a
//!   typed error promptly;
//! * the trace path: the same fleet's `--trace-out` file renders every
//!   `isasgd report` section, and a field cut from it is refused;
//! * flag/handshake validation errors name their cause.

use std::path::{Path, PathBuf};
use std::process::Command;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_isasgd"))
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("isasgd_proc_e2e_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&d).unwrap();
    d
}

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
        "gen failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    data
}

/// Runs a cluster training and returns (filtered round trace, summary
/// line, model JSON) — everything that must match across transports.
fn run_cluster(
    data: &Path,
    model: &Path,
    transport: &str,
    sync: &str,
    sampling: &str,
    extra: &[&str],
) -> (Vec<String>, String, String) {
    let out = bin()
        .arg("train")
        .arg(data)
        .args([
            "--algo",
            "is-sgd",
            "--cluster",
            "3",
            "--cluster-transport",
            transport,
            "--sync",
            sync,
            "--sampling",
            sampling,
            "--scheme",
            "smoothness",
            "--epochs",
            "3",
            "--step",
            "0.2",
            "--seed",
            "7",
            "--model",
        ])
        .arg(model)
        .args(extra)
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "--cluster-transport {transport} ({sync}/{sampling}) failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let trace: Vec<String> = String::from_utf8_lossy(&out.stderr)
        .lines()
        .filter(|l| l.starts_with("[round") || l.starts_with("[feedback"))
        .map(String::from)
        .collect();
    let summary = String::from_utf8_lossy(&out.stdout).to_string();
    let model_json = std::fs::read_to_string(model).unwrap();
    (trace, summary, model_json)
}

#[test]
fn process_transport_matrix_matches_tcp_and_inproc() {
    let dir = tmpdir("matrix");
    let data = gen_data(&dir);
    for sync in ["average", "weighted"] {
        for sampling in ["static", "adaptive"] {
            let tag = format!("{sync}/{sampling}");
            let m_in = dir.join("m_inproc.json");
            let m_tcp = dir.join("m_tcp.json");
            let m_proc = dir.join("m_proc.json");
            let (tr_in, sum_in, js_in) = run_cluster(&data, &m_in, "inproc", sync, sampling, &[]);
            let (tr_tcp, _, js_tcp) = run_cluster(&data, &m_tcp, "tcp", sync, sampling, &[]);
            let (tr_proc, sum_proc, js_proc) =
                run_cluster(&data, &m_proc, "process", sync, sampling, &[]);
            assert!(
                tr_in.len() >= 4,
                "{tag}: expected 3 rounds + initial point, got {tr_in:?}"
            );
            assert_eq!(tr_proc, tr_in, "{tag}: process trace ≠ inproc");
            assert_eq!(tr_proc, tr_tcp, "{tag}: process trace ≠ tcp");
            // Saved models embed the raw weights; identical JSON bytes
            // mean identical models (same writer, same metadata fields).
            assert_eq!(js_proc, js_in, "{tag}: process model ≠ inproc");
            assert_eq!(js_proc, js_tcp, "{tag}: process model ≠ tcp");
            assert!(sum_proc.contains("transport=process"), "{sum_proc}");
            assert!(sum_in.contains("transport=inproc"), "{sum_in}");
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn process_worker_loss_respawn_is_bit_identical() {
    let dir = tmpdir("respawn");
    let data = gen_data(&dir);
    let m_clean = dir.join("m_clean.json");
    let m_chaos = dir.join("m_chaos.json");
    let (tr_clean, _, js_clean) =
        run_cluster(&data, &m_clean, "process", "average", "adaptive", &[]);
    let (tr_chaos, _, js_chaos) = run_cluster(
        &data,
        &m_chaos,
        "process",
        "average",
        "adaptive",
        &["--chaos-kill", "1:2", "--on-worker-loss", "respawn"],
    );
    assert_eq!(
        tr_chaos, tr_clean,
        "killed+respawned run's round trace diverged from the undisturbed run"
    );
    assert_eq!(
        js_chaos, js_clean,
        "killed+respawned run's final model diverged from the undisturbed run"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn checkpointed_respawn_is_bit_identical_through_real_subprocesses() {
    // The whole checkpoint path over genuine fork/exec workers: state
    // frames every round, a chaos kill, checkpoint-installed recovery —
    // and the result is bit-equal to a run that never checkpointed and
    // never died.
    let dir = tmpdir("ckpt");
    let data = gen_data(&dir);
    let m_clean = dir.join("m_clean.json");
    let m_ckpt = dir.join("m_ckpt.json");
    let (tr_clean, _, js_clean) =
        run_cluster(&data, &m_clean, "process", "average", "adaptive", &[]);
    let (tr_ckpt, _, js_ckpt) = run_cluster(
        &data,
        &m_ckpt,
        "process",
        "average",
        "adaptive",
        &[
            "--checkpoint-every",
            "1",
            "--chaos-kill",
            "1:2",
            "--on-worker-loss",
            "respawn",
        ],
    );
    assert_eq!(
        tr_ckpt, tr_clean,
        "checkpointed recovery's round trace diverged from the undisturbed run"
    );
    assert_eq!(
        js_ckpt, js_clean,
        "checkpointed recovery's final model diverged from the undisturbed run"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// The observability path end to end: a genuine subprocess fleet with a
/// chaos kill, a checkpointed respawn and `--trace-out` writes a trace
/// that `isasgd report` reads back whole — every round closed, every
/// section rendered — and the same trace with one field cut from its
/// handshake lines is refused, not read as a default.
#[test]
fn a_fleet_trace_reports_every_section_and_a_cut_field_is_refused() {
    let dir = tmpdir("trace");
    let data = gen_data(&dir);
    let trace = dir.join("run.jsonl");
    run_cluster(
        &data,
        &dir.join("m.json"),
        "process",
        "average",
        "adaptive",
        &[
            "--checkpoint-every",
            "1",
            "--chaos-kill",
            "1:2",
            "--on-worker-loss",
            "respawn",
            "--trace-out",
            trace.to_str().unwrap(),
        ],
    );
    let report = |path: &Path| {
        bin()
            .arg("report")
            .arg(path)
            .args(["--expect-rounds", "3"])
            .output()
            .unwrap()
    };

    let out = report(&trace);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{text}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    for section in [
        "[rounds]",
        "[workers]",
        "[handshakes]",
        "[respawns]",
        "[net]",
    ] {
        assert!(text.contains(section), "no {section}: {text}");
    }
    assert!(
        text.contains(": respawn in "),
        "no respawn handshake: {text}"
    );

    // A flag whose absence must not read as `false` ("admitted").
    let full = std::fs::read_to_string(&trace).unwrap();
    let cut: String = full
        .lines()
        .map(|l| {
            let l = if l.contains("\"event\":\"handshake\"") {
                l.replace(",\"respawn\":true", "")
                    .replace(",\"respawn\":false", "")
            } else {
                l.to_string()
            };
            l + "\n"
        })
        .collect();
    assert_ne!(cut, full, "the trace has no handshake line to cut");
    let cut_path = dir.join("cut.jsonl");
    std::fs::write(&cut_path, cut).unwrap();
    let out = report(&cut_path);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("event 'handshake'") && err.contains("field 'respawn'"),
        "{err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn process_worker_loss_fail_is_a_typed_error() {
    let dir = tmpdir("fail");
    let data = gen_data(&dir);
    let out = bin()
        .arg("train")
        .arg(&data)
        .args([
            "--algo",
            "is-sgd",
            "--cluster",
            "3",
            "--cluster-transport",
            "process",
            "--chaos-kill",
            "1:2",
            "--on-worker-loss",
            "fail",
            "--epochs",
            "3",
            "--step",
            "0.2",
            "--seed",
            "7",
            "--quiet",
        ])
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "a lost worker under fail policy must exit with an error, not hang"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("worker 1 lost"),
        "error must name the lost worker: {err}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn process_flag_validation() {
    let dir = tmpdir("flags");
    let data = gen_data(&dir);
    // Fleet flags without the process transport.
    for flags in [
        &["--cluster", "2", "--on-worker-loss", "respawn"][..],
        &[
            "--cluster",
            "2",
            "--cluster-transport",
            "tcp",
            "--chaos-kill",
            "1:2",
        ][..],
        &[
            "--cluster",
            "2",
            "--cluster-transport",
            "process",
            "--on-worker-loss",
            "retry",
        ][..],
    ] {
        let out = bin()
            .arg("train")
            .arg(&data)
            .args(flags)
            .args(["--epochs", "1", "--quiet"])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{flags:?} must be rejected");
    }
    // `worker --help` documents the subcommand; a worker pointed at a
    // dead address reports a connect error.
    let out = bin().args(["worker", "--help"]).output().unwrap();
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("--connect"));
    let out = bin()
        .args(["worker", "--connect", "127.0.0.1:1", "--quiet"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("connect"));
    std::fs::remove_dir_all(dir).ok();
}
