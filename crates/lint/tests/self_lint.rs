//! The linter eating its own dogfood: the real workspace must come up
//! clean, the committed `WIRE_SCHEMA.json` must match a fresh
//! extraction byte-for-byte, and mutating the protocol source must
//! trip the gate — the acceptance demonstration that a tag change
//! cannot land without a schema diff.

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

#[test]
fn committed_schema_matches_extraction_exactly() {
    let root = workspace_root();
    let mut findings = Vec::new();
    let schema =
        isasgd_lint::extract_schema(&root, &mut findings).expect("wire.rs must yield a schema");
    assert!(
        findings.is_empty(),
        "protocol inconsistencies: {findings:?}"
    );
    let committed = std::fs::read_to_string(root.join(isasgd_lint::WIRE_SCHEMA_JSON))
        .expect("WIRE_SCHEMA.json is committed at the workspace root");
    assert_eq!(
        committed,
        schema.render(),
        "WIRE_SCHEMA.json drifted — run `cargo run -p isasgd-lint -- --write-schema` \
         and review the protocol diff"
    );
    // Regeneration is idempotent and canonical: a second render of a
    // re-extraction is byte-identical.
    let schema2 = isasgd_lint::extract_schema(&root, &mut Vec::new()).unwrap();
    assert_eq!(schema.render(), schema2.render());
    assert!(committed.ends_with('\n'));
}

#[test]
fn schema_covers_the_full_protocol() {
    let root = workspace_root();
    let schema = isasgd_lint::extract_schema(&root, &mut Vec::new()).unwrap();
    assert_eq!(schema.frames.len(), 11);
    assert_eq!(schema.frame_kinds, 11);
    let names: Vec<&str> = schema.frames.iter().map(|f| f.name.as_str()).collect();
    assert_eq!(
        names,
        [
            "ModelUpdate",
            "FeedbackBatch",
            "RoundBarrier",
            "ShardRebalance",
            "Hello",
            "Assign",
            "ModelDelta",
            "DatasetShard",
            "Checkpoint",
            "CheckpointAck",
            "Telemetry"
        ],
        "frames are rendered in tag order"
    );
    assert!(!schema.session_config.is_empty());
}

/// Renumbering a tag without touching WIRE_SCHEMA.json must fail the
/// gate: the mutated source still extracts consistently (the arms
/// reference the const by name), but its canonical rendering differs
/// from the committed schema.
#[test]
fn retagging_a_frame_changes_the_canonical_schema() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join(isasgd_lint::WIRE_RS)).unwrap();
    let needle = "TAG_MODEL_DELTA: u8 = 8";
    assert!(src.contains(needle), "retagging fixture lost its anchor");
    let mutated = src.replace(needle, "TAG_MODEL_DELTA: u8 = 13");

    let mut findings = Vec::new();
    let schema = isasgd_lint::schema::extract(isasgd_lint::WIRE_RS, &mutated, &mut findings)
        .expect("retagged source still extracts");
    assert!(
        findings.is_empty(),
        "renumbering alone is consistent: {findings:?}"
    );

    let committed = std::fs::read_to_string(root.join(isasgd_lint::WIRE_SCHEMA_JSON)).unwrap();
    assert_ne!(
        committed,
        schema.render(),
        "a tag change must change the canonical schema"
    );
    let delta = schema
        .frames
        .iter()
        .find(|f| f.name == "ModelDelta")
        .unwrap();
    assert_eq!(delta.tag, 13);
}

/// Colliding two tags is caught one layer earlier: extraction itself
/// reports the duplicate, and `--write-schema` refuses to freeze it.
#[test]
fn tag_collision_is_a_consistency_finding() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join(isasgd_lint::WIRE_RS)).unwrap();
    let mutated = src.replace("TAG_MODEL_DELTA: u8 = 8", "TAG_MODEL_DELTA: u8 = 1");
    let mut findings = Vec::new();
    isasgd_lint::schema::extract(isasgd_lint::WIRE_RS, &mutated, &mut findings);
    assert!(
        findings
            .iter()
            .any(|f| f.rule == "wire-schema" && f.message.contains("duplicate")),
        "duplicate tag must be a wire-schema finding: {findings:?}"
    );
}

/// Dropping a frame's encode arm is likewise caught at extraction.
#[test]
fn dropping_an_encode_arm_is_a_consistency_finding() {
    let root = workspace_root();
    let src = std::fs::read_to_string(root.join(isasgd_lint::WIRE_RS)).unwrap();
    // Renaming the variant in the enum desyncs it from its TAG const,
    // the encode/decode arms, and FrameKind.
    let mutated = src.replacen("ModelDelta {", "ModelDeltaV2 {", 1);
    let mut findings = Vec::new();
    isasgd_lint::schema::extract(isasgd_lint::WIRE_RS, &mutated, &mut findings);
    assert!(
        !findings.is_empty(),
        "a variant/arm desync must produce wire-schema findings"
    );
    assert!(findings.iter().all(|f| f.rule == "wire-schema"));
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
