//! The binary's loud-failure contracts, driven through the real
//! executable: a mistyped command or an out-of-range scale costs
//! nothing, a missing artifact is not a warning.

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

/// A scale shrinks the profiles' (n, d): anything outside (0, 1] is a bad
/// command line, refused before an artifact runs. `inf` and `1e30` would
/// saturate the sizes; `nan`, `0` and `-1` collapse them to 8 rows.
#[test]
fn a_scale_outside_the_unit_interval_is_refused() {
    let out = scratch("scale");
    for scale in ["inf", "1e30", "nan", "0", "-1", "1.5"] {
        let r = run(&out, &["--scale", scale, "table1"]);
        assert_eq!(r.status.code(), Some(2), "--scale {scale}");
        let stderr = String::from_utf8_lossy(&r.stderr);
        assert!(
            stderr.contains(&format!("bad value '{scale}' for --scale")),
            "--scale {scale}: {stderr}"
        );
        assert!(r.stdout.is_empty(), "--scale {scale}: an artifact ran");
        assert!(!out.join("table1.txt").exists());
    }
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
