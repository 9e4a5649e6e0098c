//! The rule families over scanned source files.
//!
//! Scoping is data, not code: [`decode_scope`] and the constant tables
//! below say exactly which files and functions each family covers, so
//! adding a path to the protocol surface is a one-line diff that the
//! review can see.
//!
//! | rule | family | fires on |
//! |------|--------|----------|
//! | `decode-unwrap` | panic-freedom | `.unwrap()` in a decode file |
//! | `decode-expect` | panic-freedom | `.expect(` in a decode file |
//! | `decode-panic` | panic-freedom | `panic!`/`unreachable!`/`todo!`/`unimplemented!`/`assert*!` in a decode file |
//! | `decode-index` | panic-freedom | `x[...]` indexing inside a decode-side function |
//! | `decode-cast` | panic-freedom | `as u8/u16/u32/i8/i16/i32/isize` inside a decode-side function |
//! | `decode-debug-assert` | panic-freedom | `debug_assert*!` inside a decode-side function (release builds skip it — PR 3's `next_index(0)` bug class) |
//! | `hash-container` | determinism | `HashMap`/`HashSet` in deterministic-core code (iteration order would break the bit-identity pins; token-level analysis cannot see *which* use iterates, so the type itself is the contraband) |
//! | `wall-clock` | determinism | `Instant::now`/`SystemTime` outside the designated timing modules |
//! | `float-cmp` | determinism | `==`/`!=` against a non-zero float literal (comparisons to `0.0` are exact-representation guards and stay legal) |
//! | `unbounded-recv` | liveness | `.recv()` on a cluster protocol file — a blocking receive with no deadline of its own; every site must say where its deadline comes from |
//! | `raw-eprintln` | observability | `eprintln!` in runtime/CLI code — trace output belongs on the typed event layer (`isasgd-obs`); survivors (pinned parity lines, CLI error paths) carry a reasoned allow |
//! | `missing-forbid-unsafe` | audit | crate root without `#![forbid(unsafe_code)]` |
//! | `allow-missing-reason` | hygiene | a `lint: allow` with no `— reason` |
//! | `unused-allow` | hygiene | a `lint: allow` that silenced nothing |

use crate::lexer::TokKind;
use crate::report::Finding;
use crate::scan::SourceFile;

/// Files whose decode paths must be panic-free on hostile input
/// (workspace-relative). The whole non-test file is covered by the
/// unwrap/expect/panic rules — except [`WORKER_HALF_FILE`], where they
/// cover the worker half only; the index/cast/debug-assert rules narrow
/// further to decode-side functions via [`decode_scope`]. The pass sees
/// source tokens, not macro expansions — but a `macro_rules!` body *is*
/// source tokens, scoped by the `fn`/`impl` headers written in it, so
/// the decode paths `wire.rs` generates from its frame, struct and enum
/// tables are checked where they are spelled.
pub const DECODE_FILES: [&str; 4] = [
    "crates/cluster/src/wire.rs",
    "crates/cluster/src/transport.rs",
    "crates/cluster/src/procnode.rs",
    WORKER_HALF_FILE,
];

/// The round driver and the worker runtime share this file; only
/// `impl NodeRuntime` — the code that consumes the frames `procnode.rs`
/// and every thread-backed link hand it — is on the decode side.
pub const WORKER_HALF_FILE: &str = "crates/cluster/src/coordinator.rs";

/// Crates whose `src/` trees carry the bit-identity guarantees (the
/// 4-way equivalence matrix): the determinism rules apply here.
pub const DETERMINISM_CRATES: [&str; 4] = [
    "crates/cluster/src/",
    "crates/sampling/src/",
    "crates/balance/src/",
    "crates/core/src/",
];

/// Designated timing modules: wall-clock reads are their purpose
/// (fleet liveness deadlines, the train-timer harness), so
/// `wall-clock` does not apply. Everything else in the determinism
/// crates needs a per-site `lint: allow(wall-clock)` with a reason.
pub const TIMING_MODULES: [&str; 2] = ["crates/cluster/src/fleet.rs", "crates/core/src/eval.rs"];

/// Cluster protocol files where a blocking `.recv()` can hang the run
/// forever unless a deadline is armed somewhere — PR 5's hang class.
/// Every `.recv()` here needs a `lint: allow(unbounded-recv)` naming
/// the deadline that actually covers it (a Tcp read timeout, the model
/// checker's deadlock invariant, …). `fleet.rs` is excluded:
/// `SupervisedLink` and the admission loop *are* the deadline
/// machinery — handshake and round timeouts live there by design.
pub const PROTOCOL_RECV_FILES: [&str; 4] = [
    "crates/cluster/src/coordinator.rs",
    "crates/cluster/src/transport.rs",
    "crates/cluster/src/procnode.rs",
    "crates/cluster/src/node.rs",
];

/// Source trees where ad-hoc `eprintln!` tracing is forbidden: runtime
/// diagnostics go through `isasgd-obs` events (level-gated stderr,
/// JSONL traces, metrics — all three for free) instead of raw prints.
/// The obs crate itself is the sanctioned sink and is not listed.
/// Survivors need a `lint: allow(raw-eprintln)` stating why they must
/// bypass the recorder (byte-pinned parity lines, error paths that
/// must print when no recorder exists).
pub const EPRINTLN_SCOPES: [&str; 2] = ["crates/cluster/src/", "crates/cli/src/"];

/// Is this (file, fn, impl) location on the decode side — parsing
/// bytes a hostile peer controls?
fn decode_scope(path: &str, fn_name: &str, impl_name: &str) -> bool {
    if path.ends_with("cluster/src/wire.rs") {
        // `Wire::get` impls (hand-written or in a macro body), the
        // custom layouts' `get_*` bodies, and `Message::decode`.
        fn_name == "get"
            || fn_name.starts_with("get_")
            || fn_name == "decode"
            || fn_name == "apply_delta"
            || impl_name == "Reader"
    } else if path.ends_with("cluster/src/transport.rs") {
        // The rx path: `Tcp::recv` and the in-process mirror.
        fn_name == "recv"
    } else if path.ends_with("cluster/src/procnode.rs") {
        // The whole worker session module handles coordinator-sent
        // frames...
        !fn_name.is_empty()
    } else if path.ends_with(WORKER_HALF_FILE) {
        // ...and hands them to the worker runtime, which acts on their
        // contents: assigned shard, ranges, checkpoint state, models.
        impl_name == "NodeRuntime"
    } else {
        false
    }
}

fn is_decode_file(path: &str) -> bool {
    DECODE_FILES.iter().any(|f| path.ends_with(f) || path == *f)
}

fn in_determinism_scope(path: &str) -> bool {
    DETERMINISM_CRATES.iter().any(|c| path.contains(c))
}

fn is_timing_module(path: &str) -> bool {
    TIMING_MODULES
        .iter()
        .any(|f| path.ends_with(f) || path == *f)
}

fn is_protocol_recv_file(path: &str) -> bool {
    PROTOCOL_RECV_FILES
        .iter()
        .any(|f| path.ends_with(f) || path == *f)
}

fn in_eprintln_scope(path: &str) -> bool {
    EPRINTLN_SCOPES.iter().any(|c| path.contains(c))
}

/// Keywords that may legally precede `[` without it being an index
/// expression (`return [..]`, `in [..]`, …).
const NONINDEX_KEYWORDS: [&str; 24] = [
    "return", "in", "mut", "else", "match", "if", "break", "while", "loop", "as", "move", "ref",
    "let", "const", "static", "pub", "fn", "where", "unsafe", "dyn", "impl", "for", "use", "box",
];

/// Cast targets the `decode-cast` rule forbids. Casts *into* `usize`/
/// `u64`/`u128`/`f64` stay legal: every wire-sourced integer is u8/u32,
/// so those directions widen on the 64-bit targets this workspace
/// supports — a limit of token-level analysis the crate docs own up to.
const NARROWING_TARGETS: [&str; 7] = ["u8", "u16", "u32", "i8", "i16", "i32", "isize"];

const PANIC_MACROS: [&str; 7] = [
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

/// Runs every per-file rule over `file`, appending findings. Findings
/// silenced by a `lint: allow` are not appended (the allow is marked
/// used); allow hygiene itself is checked by [`allow_hygiene`].
pub fn check_file(file: &SourceFile, out: &mut Vec<Finding>) {
    let decode_file = is_decode_file(&file.path);
    let determinism = in_determinism_scope(&file.path);
    let protocol_recv = is_protocol_recv_file(&file.path);
    let eprintln_scope = in_eprintln_scope(&file.path);
    if !decode_file && !determinism && !protocol_recv && !eprintln_scope {
        return;
    }
    let worker_half = file.path.ends_with(WORKER_HALF_FILE);
    let toks = &file.toks;
    let mut emit = |rule: &'static str, line: u32, col: u32, message: String| {
        if !file.consume_allow(rule, line) {
            out.push(Finding {
                rule,
                file: file.path.clone(),
                line,
                col,
                message,
            });
        }
    };
    for (i, t) in toks.iter().enumerate() {
        if file.in_test[i] {
            continue;
        }
        let (fn_name, impl_name) = &file.scopes[i];
        let in_decode = decode_file && decode_scope(&file.path, fn_name, impl_name);
        let panic_rules = decode_file && (in_decode || !worker_half);

        if panic_rules && t.kind == TokKind::Ident {
            let next_is = |c| {
                toks.get(i + 1)
                    .is_some_and(|n: &crate::lexer::Tok| n.is_punct(c))
            };
            let prev_is_dot = i > 0 && toks[i - 1].is_punct('.');
            if t.text == "unwrap" && next_is('(') && prev_is_dot {
                emit(
                    "decode-unwrap",
                    t.line,
                    t.col,
                    "`.unwrap()` on a decode path — return a typed WireError instead".into(),
                );
            } else if t.text == "expect" && next_is('(') && prev_is_dot {
                emit(
                    "decode-expect",
                    t.line,
                    t.col,
                    "`.expect(..)` on a decode path — return a typed WireError instead".into(),
                );
            } else if PANIC_MACROS.contains(&t.text.as_str()) && next_is('!') {
                emit(
                    "decode-panic",
                    t.line,
                    t.col,
                    format!(
                        "`{}!` can panic on hostile input — return a typed error",
                        t.text
                    ),
                );
            } else if in_decode && t.text.starts_with("debug_assert") && next_is('!') {
                emit(
                    "decode-debug-assert",
                    t.line,
                    t.col,
                    "`debug_assert!` guards nothing in release builds — promote to a \
                     checked error return"
                        .into(),
                );
            } else if in_decode && t.text == "as" {
                if let Some(target) = toks.get(i + 1).filter(|n| n.kind == TokKind::Ident) {
                    if NARROWING_TARGETS.contains(&target.text.as_str()) {
                        emit(
                            "decode-cast",
                            t.line,
                            t.col,
                            format!(
                                "`as {}` can silently truncate wire-sourced data — use \
                                 try_from or bound the value first",
                                target.text
                            ),
                        );
                    }
                }
            }
        }
        if decode_file && in_decode && t.is_punct('[') && i > 0 {
            let p = &toks[i - 1];
            let indexable = match p.kind {
                TokKind::Ident => !NONINDEX_KEYWORDS.contains(&p.text.as_str()),
                TokKind::Punct => p.is_punct(')') || p.is_punct(']') || p.is_punct('?'),
                _ => false,
            };
            if indexable {
                emit(
                    "decode-index",
                    t.line,
                    t.col,
                    "direct indexing can panic on hostile input — use .get()/.get_mut()".into(),
                );
            }
        }
        if determinism && t.kind == TokKind::Ident {
            if t.text == "HashMap" || t.text == "HashSet" {
                emit(
                    "hash-container",
                    t.line,
                    t.col,
                    format!(
                        "`{}` iteration order is nondeterministic — use BTreeMap/BTreeSet \
                         or an index-keyed Vec",
                        t.text
                    ),
                );
            } else if !is_timing_module(&file.path) {
                let now_call = t.text == "Instant"
                    && toks.get(i + 1).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|a| a.is_punct(':'))
                    && toks.get(i + 3).is_some_and(|a| a.is_ident("now"));
                if now_call || t.text == "SystemTime" {
                    emit(
                        "wall-clock",
                        t.line,
                        t.col,
                        "wall-clock reads outside a designated timing module make runs \
                         irreproducible"
                            .into(),
                    );
                }
            }
        }
        if protocol_recv
            && t.kind == TokKind::Ident
            && t.text == "recv"
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            emit(
                "unbounded-recv",
                t.line,
                t.col,
                "`.recv()` blocks with no deadline of its own — arm a read deadline on \
                 the link, or annotate the site with the deadline that covers it"
                    .into(),
            );
        }
        if eprintln_scope
            && t.kind == TokKind::Ident
            && t.text == "eprintln"
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            emit(
                "raw-eprintln",
                t.line,
                t.col,
                "`eprintln!` bypasses the event layer — emit an `isasgd_obs::Event` \
                 (level-gated stderr + JSONL + metrics), or annotate why this line \
                 must print raw"
                    .into(),
            );
        }
        if determinism && float_eq_at(file, i) {
            emit(
                "float-cmp",
                t.line,
                t.col,
                "`==`/`!=` against a float literal — floats compare reliably only in \
                 bit-identity helpers (compare .to_bits(), or use a 0.0 exact-guard)"
                    .into(),
            );
        }
    }
}

/// True when token `i` starts a `==`/`!=` whose operand is a non-zero
/// float literal (possibly behind a unary minus).
fn float_eq_at(file: &SourceFile, i: usize) -> bool {
    let toks = &file.toks;
    let t = &toks[i];
    let adjacent_eq = toks
        .get(i + 1)
        .is_some_and(|n| n.is_punct('=') && n.line == t.line && n.col == t.col + 1);
    if !((t.is_punct('=') || t.is_punct('!')) && adjacent_eq) {
        return false;
    }
    // `==` must not itself be the tail of `<=`, `>=`, or a prior `!=`.
    if i > 0 && toks[i - 1].kind == TokKind::Punct && toks[i - 1].col + 1 == t.col {
        return false;
    }
    let float_lit = |idx: usize| {
        let mut j = idx;
        if toks.get(j).is_some_and(|x| x.is_punct('-')) {
            j += 1;
        }
        toks.get(j).is_some_and(|x| {
            x.kind == TokKind::Number
                && x.text.contains('.')
                && x.text.trim_end_matches('0').trim_end_matches('.') != "0"
        })
    };
    // Left operand: the token before `==`; right: after it (skip `-`).
    let left = i > 0
        && toks[i - 1].kind == TokKind::Number
        && toks[i - 1].text.contains('.')
        && toks[i - 1].text.trim_end_matches('0').trim_end_matches('.') != "0";
    left || float_lit(i + 2)
}

/// Allow hygiene over a scanned file: every `lint: allow` must carry a
/// reason, and must have silenced at least one finding. Call after
/// [`check_file`] (which marks allows used).
pub fn allow_hygiene(file: &SourceFile, out: &mut Vec<Finding>) {
    for a in &file.allows {
        if a.reason.is_empty() {
            out.push(Finding {
                rule: "allow-missing-reason",
                file: file.path.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint: allow({}) carries no reason — append `— <why this site is safe>`",
                    a.rule
                ),
            });
        }
        if !a.used.get() {
            out.push(Finding {
                rule: "unused-allow",
                file: file.path.clone(),
                line: a.line,
                col: 1,
                message: format!(
                    "lint: allow({}) silences nothing here — remove it or fix the rule name",
                    a.rule
                ),
            });
        }
    }
}

/// The unsafe-audit rule: a crate-root file (`lib.rs` / `main.rs`)
/// must open with `#![forbid(unsafe_code)]`. `vendor/` stand-ins are
/// outside the walk entirely (documented allowlist: they exist only
/// because the build environment is offline).
pub fn check_crate_root(file: &SourceFile, out: &mut Vec<Finding>) {
    if !file.forbids_unsafe {
        out.push(Finding {
            rule: "missing-forbid-unsafe",
            file: file.path.clone(),
            line: 1,
            col: 1,
            message: "crate root lacks `#![forbid(unsafe_code)]`".into(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        let f = SourceFile::parse(path, src);
        let mut out = Vec::new();
        check_file(&f, &mut out);
        allow_hygiene(&f, &mut out);
        out
    }

    const WIRE: &str = "crates/cluster/src/wire.rs";

    #[test]
    fn unwrap_fires_only_outside_tests() {
        let src = "fn get_x(v: &[u8]) { v.first().unwrap(); }\n\
                   #[cfg(test)]\nmod tests { fn t() { x.unwrap(); } }\n";
        let f = run(WIRE, src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "decode-unwrap");
        assert_eq!(f[0].line, 1);
    }

    #[test]
    fn index_and_cast_scope_to_decode_fns() {
        let src = "fn get_x(v: &[u8], n: u64) -> u8 { let _ = n as u32; v[0] }\n\
                   fn put_x(v: &[u8], n: u64) -> u8 { let _ = n as u32; v[0] }\n";
        let f = run(WIRE, src);
        let rules: Vec<_> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert!(rules.contains(&("decode-cast", 1)));
        assert!(rules.contains(&("decode-index", 1)));
        // put_x is encode-side: not in scope for index/cast...
        assert!(!rules.contains(&("decode-cast", 2)));
        assert!(!rules.contains(&("decode-index", 2)));
    }

    #[test]
    fn a_decode_fn_spelled_in_a_macro_body_is_in_scope() {
        let src = "macro_rules! wire_number {\n\
                   \x20   ($($ty:ty),*) => {$(\n\
                   \x20       impl Wire for $ty {\n\
                   \x20           fn put(&self, out: &mut Vec<u8>) { let _ = self.len() as u32; }\n\
                   \x20           fn get(r: &mut Reader<'_>) -> Result<Self, WireError> { Ok(r.buf[0] as u32) }\n\
                   \x20       }\n\
                   \x20   )*};\n\
                   }\n";
        let f = run(WIRE, src);
        let rules: Vec<_> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(rules, [("decode-index", 5), ("decode-cast", 5)], "{f:?}");
    }

    #[test]
    fn the_worker_half_of_the_round_file_is_a_decode_path() {
        let src = "impl<T: Transport> NodeRuntime<T> {\n\
                   \x20   fn run(self, r: &[u64], k: usize) -> u32 { r.first().unwrap(); r[k] as u32 }\n\
                   }\n\
                   fn coordinate(r: &[u64], k: usize) -> u32 { r.first().unwrap(); r[k] as u32 }\n";
        let f = run(WORKER_HALF_FILE, src);
        let rules: Vec<_> = f.iter().map(|x| (x.rule, x.line)).collect();
        assert_eq!(
            rules,
            [
                ("decode-unwrap", 2),
                ("decode-index", 2),
                ("decode-cast", 2)
            ],
            "every panic-freedom rule inside the impl, none outside: {f:?}"
        );
    }

    #[test]
    fn allows_silence_and_unused_allows_fire() {
        let src = "fn get_x(v: &[u8]) -> u8 {\n\
                   \x20   // lint: allow(decode-index) — length checked on entry\n\
                   \x20   v[0]\n\
                   }\n\
                   // lint: allow(decode-unwrap) — nothing here\n";
        let f = run(WIRE, src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unused-allow");
    }

    #[test]
    fn float_cmp_exempts_zero_guards() {
        let path = "crates/core/src/solvers/x.rs";
        let zero = run(path, "fn f(x: f64) -> bool { x == 0.0 }");
        assert!(zero.is_empty(), "{zero:?}");
        let one = run(path, "fn f(x: f64) -> bool { x != 1.0 }");
        assert_eq!(one.len(), 1);
        assert_eq!(one[0].rule, "float-cmp");
        let le = run(path, "fn f(x: f64) -> bool { x <= 1.0 }");
        assert!(le.is_empty(), "{le:?}");
    }

    #[test]
    fn wall_clock_respects_timing_modules() {
        let src = "fn f() { let t = Instant::now(); }";
        assert_eq!(run("crates/cluster/src/coordinator.rs", src).len(), 1);
        assert!(run("crates/cluster/src/fleet.rs", src).is_empty());
        assert!(run("crates/experiments/src/common.rs", src).is_empty());
    }

    #[test]
    fn unbounded_recv_scopes_to_protocol_files() {
        let src = "fn pump(l: &mut L) { let a = l.recv(); let b = l.recv_timeout(d); }";
        let f = run("crates/cluster/src/coordinator.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "unbounded-recv");
        // recv_timeout carries its own deadline; fleet.rs owns the
        // deadline machinery; foreign crates are out of scope.
        assert!(run("crates/cluster/src/fleet.rs", src).is_empty());
        assert!(run("crates/check/src/endpoint.rs", src).is_empty());
        let allowed = "fn pump(l: &mut L) {\n\
                       \x20   // lint: allow(unbounded-recv) — Tcp read deadline armed at connect\n\
                       \x20   let a = l.recv();\n\
                       }\n";
        assert!(run("crates/cluster/src/procnode.rs", allowed).is_empty());
    }

    #[test]
    fn raw_eprintln_scopes_to_runtime_and_cli() {
        let src = "fn f() { eprintln!(\"[net] {x}\"); }";
        // Runtime and CLI trees are in scope...
        let f = run("crates/cluster/src/fleet.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, "raw-eprintln");
        assert_eq!(run("crates/cli/src/cmd_train.rs", src).len(), 1);
        // ...the obs sink and foreign crates are not.
        assert!(run("crates/obs/src/sink.rs", src).is_empty());
        assert!(run("crates/experiments/src/common.rs", src).is_empty());
        // Tests may print freely.
        let test_src = "#[cfg(test)]\nmod tests { fn t() { eprintln!(\"x\"); } }\n";
        assert!(run("crates/cli/src/cmd_train.rs", test_src).is_empty());
        // A reasoned allow silences the rule.
        let allowed = "fn f() {\n\
                       \x20   // lint: allow(raw-eprintln) — parity e2e pins this line byte-for-byte\n\
                       \x20   eprintln!(\"[round]\");\n\
                       }\n";
        assert!(run("crates/cli/src/cmd_train.rs", allowed).is_empty());
    }

    #[test]
    fn hash_container_fires_in_core_crates() {
        let src =
            "use std::collections::HashMap;\nfn f() { let m: HashMap<u32, u32> = HashMap::new(); }";
        let f = run("crates/sampling/src/feedback.rs", src);
        assert_eq!(f.len(), 3); // the use + two mentions
        assert!(f.iter().all(|x| x.rule == "hash-container"));
    }
}
