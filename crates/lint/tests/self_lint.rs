//! The linter eating its own dogfood: the real workspace must come up
//! clean, and the machine-readable report must be stable.

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    isasgd_lint::find_root(manifest).expect("workspace root above crates/lint")
}

#[test]
fn workspace_is_lint_clean() {
    let report = isasgd_lint::run_workspace(&workspace_root());
    assert!(
        report.findings.is_empty(),
        "the workspace must lint clean:\n{}",
        report.render_text()
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walk break?",
        report.files_scanned
    );
    // Every escape hatch in the tree carries a reason (hygiene would
    // have flagged otherwise, but assert the invariant directly too).
    for a in &report.allows {
        assert!(
            !a.reason.is_empty(),
            "allow({}) at {}:{} has no reason",
            a.rule,
            a.file,
            a.line
        );
    }
}

/// `--format json` output over the real tree is stable and parseable
/// enough to diff in CI.
#[test]
fn json_report_is_stable_over_the_real_tree() {
    let root = workspace_root();
    let a = isasgd_lint::run_workspace(&root).render_json();
    let b = isasgd_lint::run_workspace(&root).render_json();
    assert_eq!(a, b, "two runs over the same tree must be byte-identical");
    assert!(a.starts_with("{\n"));
    assert!(a.contains("\"files_scanned\""));
    assert!(a.contains("\"allows\""));
    assert!(!a.to_lowercase().contains("\"time"));
}
