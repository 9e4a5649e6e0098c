//! Regenerates every table and figure of the IS-ASGD paper.
//!
//! ```text
//! isasgd-experiments [FLAGS] <COMMAND>...
//! ```
//!
//! A command is a row of [`artifacts::ARTIFACTS`] (or `all`); `--help`
//! prints the table with each row's paper reference, and the flags.
//! Each artifact prints its table, writes `<stem>.txt`/`.csv` under
//! `--out`, and holds the numbers its note promises against a band
//! (`PASS`/`NOT-REPRODUCED`/`FAIL` lines, a final `claims: passed/total
//! (k not reproduced)`). Exit status:
//! 0, 1 when a file cannot be written or a check of a deterministic
//! artifact fails, 2 on a bad command line.

#![forbid(unsafe_code)]

mod artifacts;
mod cmds;
mod common;

use common::{Ctx, Settings};

fn parse_list(s: &str) -> Option<Vec<usize>> {
    s.split(',').map(|t| t.trim().parse().ok()).collect()
}

/// The value after flag `args[*i]`, through `parse`; exits 2 when it is
/// missing or malformed.
fn value<T>(args: &[String], i: &mut usize, parse: impl Fn(&str) -> Option<T>) -> T {
    let flag = &args[*i];
    *i += 1;
    let Some(v) = args.get(*i) else {
        eprintln!("missing value for {flag}");
        std::process::exit(2);
    };
    parse(v).unwrap_or_else(|| {
        eprintln!("bad value '{v}' for {flag}");
        std::process::exit(2);
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut settings = Settings::default();
    let mut commands: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--quick" => settings = Settings::quick(),
            // A scale shrinks (n, d): anything outside (0, 1], NaN
            // included, would saturate or collapse the profile.
            "--scale" => {
                settings.scale = value(&args, &mut i, |v| {
                    v.parse().ok().filter(|s: &f64| *s > 0.0 && *s <= 1.0)
                });
            }
            "--epochs" => settings.epochs = Some(value(&args, &mut i, |v| v.parse().ok())),
            "--seed" => settings.seed = value(&args, &mut i, |v| v.parse().ok()),
            "--taus" => settings.taus = value(&args, &mut i, parse_list),
            "--threads" => settings.threads = value(&args, &mut i, parse_list),
            "--avg" => settings.avg_runs = value(&args, &mut i, |v| v.parse().ok()),
            "--out" => settings.out_dir = value(&args, &mut i, |v| Some(v.into())),
            "--help" | "-h" => {
                print!("{}", artifacts::help());
                return;
            }
            cmd if !cmd.starts_with('-') => commands.push(cmd.to_string()),
            other => {
                eprintln!("unknown flag {other}; see --help");
                std::process::exit(2);
            }
        }
        i += 1;
    }
    if commands.is_empty() {
        print!("{}", artifacts::help());
        std::process::exit(2);
    }
    // Every name is resolved before anything runs: a typo after a
    // minutes-long figure must not cost the figure.
    let todo = artifacts::resolve(&commands).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2);
    });

    let mut ctx = Ctx::new(settings).unwrap_or_else(|e| {
        eprintln!("error: cannot create the output directory: {e}");
        std::process::exit(1);
    });
    for a in todo {
        artifacts::run(&mut ctx, a);
    }
    println!(
        "claims: {}/{} ({} not reproduced)",
        ctx.claims.passed, ctx.claims.total, ctx.claims.not_reproduced
    );
    if ctx.claims.broken {
        std::process::exit(1);
    }
}
