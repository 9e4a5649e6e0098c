//! `isasgd-lint` — the workspace invariant checker.
//!
//! Turns the repo's two load-bearing *dynamic* guarantees —
//! **panic-freedom on untrusted-input paths** and **determinism** —
//! into compile-gate properties: token-level rules over the workspace
//! source (see [`rules`] for the catalog and the exact file/function
//! scoping), checked by `cargo run -p isasgd-lint -- --check` in CI.
//! It is a pure source-rule checker: the wire protocol's frame list is
//! declared once in `crates/cluster/src/wire.rs` and its coverage is the
//! compiler's job, the frozen `WIRE_SCHEMA.json` an ordinary
//! `isasgd-cluster` test's.
//!
//! # What a token-level linter can and cannot check
//!
//! The analysis is a hand-rolled lexer ([`lexer`]) plus brace-matched
//! item scanning ([`scan`]) — deliberately **not** `syn` or rustc
//! internals: the build environment is offline (`vendor/README.md`),
//! and a dependency-free pass keeps the gate fast and auditable. The
//! price is honesty about limits, which future rules must respect:
//!
//! * **No type information.** `decode-cast` flags `as u8/…/u32/isize`
//!   spellings; it cannot see that a *source* is `u128`, so a
//!   `u128 as u64` truncation passes. Casts into `usize`/`u64` from
//!   wire-sourced integers (always `u8`/`u32`) widen on the 64-bit
//!   targets this workspace supports, so those directions are exempt
//!   rather than drowning the report.
//! * **No data flow.** `hash-container` cannot tell a constructed-but-
//!   never-iterated `HashMap` from an iterated one, so the *type* is
//!   the contraband inside the deterministic core; `decode-index`
//!   cannot prove an index in-bounds, which is exactly why provably
//!   safe sites carry a `// lint: allow(...) — reason` the tool counts
//!   and reports instead of being silently exempt.
//! * **No macro expansion.** Code generated by macros is invisible, so
//!   declarations may be generated, decode-path functions may not:
//!   `wire.rs` expands its frame table into enums and tag/name lookups,
//!   while every function that reads peer-controlled bytes stays
//!   hand-written where the rules can see it.
//! * **Scoping is syntactic.** Test code is recognized as items under
//!   `#[cfg(test)]` / `#[test]`; decode-side functions by name pattern
//!   (`get_*`, `decode`, `recv`, the `Reader` impl — see
//!   [`rules::DECODE_FILES`] and `rules::decode_scope`).
//!
//! The escape hatch is part of the contract: every `lint: allow` must
//! name its rule, carry a reason, and actually silence something —
//! violations of the hatch's own hygiene are findings too.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod report;
pub mod rules;
pub mod scan;

use report::{AllowReport, Report};
use scan::SourceFile;
use std::fs;
use std::path::{Path, PathBuf};

/// Every `.rs` file the rules walk: `crates/*/src/**` and `src/**`,
/// sorted for deterministic report order. `vendor/` is the documented
/// allowlist (offline stand-ins, not this project's code) and test
/// trees are covered through their crates' `#[cfg(test)]` items.
pub fn workspace_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            collect_rs(&d.join("src"), &mut out);
        }
    }
    collect_rs(&root.join("src"), &mut out);
    out.sort();
    out
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            collect_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

/// Crate-root files (`src/lib.rs` / `src/main.rs` of every workspace
/// crate) — the `missing-forbid-unsafe` audit surface.
pub fn crate_roots(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok()).map(|e| e.path()).collect();
        dirs.sort();
        for d in dirs {
            for name in ["lib.rs", "main.rs"] {
                let p = d.join("src").join(name);
                if p.is_file() {
                    out.push(p);
                }
            }
        }
    }
    let top = root.join("src/lib.rs");
    if top.is_file() {
        out.push(top);
    }
    out
}

fn rel(root: &Path, p: &Path) -> String {
    p.strip_prefix(root)
        .unwrap_or(p)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Runs every rule family over the workspace at `root`.
pub fn run_workspace(root: &Path) -> Report {
    let mut rpt = Report::default();
    let roots: Vec<PathBuf> = crate_roots(root);
    for path in workspace_sources(root) {
        let Ok(src) = fs::read_to_string(&path) else {
            continue;
        };
        let rel_path = rel(root, &path);
        let file = SourceFile::parse(&rel_path, &src);
        rules::check_file(&file, &mut rpt.findings);
        rules::allow_hygiene(&file, &mut rpt.findings);
        if roots.iter().any(|r| r == &path) {
            rules::check_crate_root(&file, &mut rpt.findings);
        }
        for a in &file.allows {
            if a.used.get() {
                rpt.allows.push(AllowReport {
                    rule: a.rule.clone(),
                    file: rel_path.clone(),
                    line: a.line,
                    reason: a.reason.clone(),
                });
            }
        }
        rpt.files_scanned += 1;
    }
    rpt.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.col, a.rule).cmp(&(b.file.as_str(), b.line, b.col, b.rule))
    });
    rpt
}

/// Locates the workspace root: ascends from `start` until a directory
/// whose `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
