//! CLI for the workspace invariant checker.
//!
//! ```text
//! cargo run -p isasgd-lint -- --check                # CI gate: exit 1 on any finding
//! cargo run -p isasgd-lint -- --check --format json  # machine-readable report
//! ```

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

struct Opts {
    json: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        json: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            // Checking is the only mode; the flag names it at call sites.
            "--check" => {}
            "--format" => match args.next().as_deref() {
                Some("json") => opts.json = true,
                Some("text") => opts.json = false,
                other => return Err(format!("--format expects json|text, got {other:?}")),
            },
            "--root" => {
                let p = args.next().ok_or("--root expects a path")?;
                opts.root = Some(PathBuf::from(p));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?} (see --help)")),
        }
    }
    Ok(opts)
}

const USAGE: &str = "isasgd-lint — workspace invariant checker

USAGE: isasgd-lint [--check] [--format json|text] [--root PATH]

  --check         run all rule families (the default, and the only mode);
                  exits 1 if any finding is reported
  --format json   emit the machine-readable report instead of text
  --root PATH     workspace root (default: ascend from cwd to [workspace])";

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("isasgd-lint: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(root) = opts.root.or_else(|| {
        std::env::current_dir()
            .ok()
            .and_then(|d| isasgd_lint::find_root(&d))
    }) else {
        eprintln!("isasgd-lint: no [workspace] Cargo.toml above the current directory");
        return ExitCode::from(2);
    };

    let report = isasgd_lint::run_workspace(&root);
    if opts.json {
        print!("{}", report.render_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
