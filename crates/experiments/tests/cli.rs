//! The binary's two loud-failure contracts, driven through the real
//! executable: a mistyped command costs nothing, a missing artifact is
//! not a warning.

use std::path::PathBuf;
use std::process::{Command, Output};

fn run(out: &PathBuf, commands: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_isasgd-experiments"))
        .arg("--quick")
        .arg("--out")
        .arg(out)
        .args(commands)
        .output()
        .expect("spawn isasgd-experiments")
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("isasgd-exp-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_mistyped_command_is_refused_before_any_artifact_runs() {
    let out = scratch("typo");
    let r = run(&out, &["table1", "typo"]);
    assert_eq!(r.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&r.stderr).contains("unknown command typo"));
    assert!(r.stdout.is_empty(), "an artifact ran before the refusal");
    assert!(!out.join("table1.txt").exists());
}

#[test]
fn a_failed_write_is_fatal_and_names_the_path() {
    let out = scratch("write");
    // A directory squatting on the artifact's path makes the write fail.
    let blocked = out.join("table1.txt");
    std::fs::create_dir_all(&blocked).unwrap();
    let r = run(&out, &["table1"]);
    assert_eq!(r.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&r.stderr);
    assert!(stderr.contains(&blocked.display().to_string()), "{stderr}");
    std::fs::remove_dir_all(&out).unwrap();
}
