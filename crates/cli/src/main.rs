//! `isasgd` — command-line interface to the IS-ASGD solver family.
//!
//! ```text
//! isasgd train   <data.svm> [flags]   train any solver, optionally save model
//! isasgd predict <data.svm> --model m.json [--out preds.txt]
//! isasgd info    <data.svm>           Table-1 stats, ψ/ρ, Δ̄, τ budget
//! isasgd gen     --out f.svm          synthesize a calibrated dataset
//! isasgd worker  --connect host:port  one node of a distributed run
//! isasgd report  <trace.jsonl>        render a train --trace-out trace
//! ```

#![forbid(unsafe_code)]
// Trace output belongs on the typed event layer (`isasgd-obs`); a line
// that must print raw says why in `#[expect(clippy::print_stderr, reason = "…")]`.
#![cfg_attr(
    not(test),
    deny(
        clippy::print_stderr,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

/// `print!` for every stdout write the binary makes: once the reader has
/// gone (`isasgd info f.svm | head -5`) later prints are dropped, where
/// `print!` would panic. The command still does everything else it does
/// and exits with its own status.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

mod cmd_gen;
mod cmd_info;
mod cmd_predict;
mod cmd_report;
mod cmd_train;
mod cmd_worker;
mod opts;
mod spec;

use opts::Opts;

const HELP: &str = "\
isasgd — lock-free asynchronous SGD with importance sampling (ICPP'18 repro)

USAGE: isasgd <command> [args]

COMMANDS
  train     train SGD / IS-SGD / ASGD / IS-ASGD / SVRG on LibSVM data
  predict   score a LibSVM file with a saved model
  info      dataset diagnostics (Table-1 stats, importance & conflict structure)
  gen       synthesize a Table-1-calibrated dataset
  worker    one node of a distributed run (spawned by train --cluster-transport
            process, or launched by hand against a remote coordinator)
  report    render a train --trace-out JSONL trace: round timelines,
            per-worker latency histograms, respawns, wire totals

Run `isasgd <command> --help` for command flags.
";

/// The one stdout writer, behind `out!`: a broken pipe is ignored (the
/// reader is gone for good, so every later write meets it too), and the
/// command goes on to save its model, flush its trace or check its
/// rounds and exits with its usual status. Any other write error panics
/// as `print!` does.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::{ErrorKind, Write};
    match std::io::stdout().write_fmt(args) {
        Err(e) if e.kind() != ErrorKind::BrokenPipe => panic!("failed printing to stdout: {e}"),
        _ => {}
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let o = Opts::parse(args);
    let cmd = o.positional.first().map(String::as_str);
    if o.switch("help") {
        let text = match cmd {
            Some("train") => cmd_train::HELP,
            Some("predict") => cmd_predict::HELP,
            Some("info") => cmd_info::HELP,
            Some("gen") => cmd_gen::HELP,
            Some("worker") => cmd_worker::HELP,
            Some("report") => cmd_report::HELP,
            _ => HELP,
        };
        out!("{text}");
        return;
    }
    let result = match cmd {
        Some("train") => cmd_train::run(&o),
        Some("predict") => cmd_predict::run(&o),
        Some("info") => cmd_info::run(&o),
        Some("gen") => cmd_gen::run(&o),
        Some("worker") => cmd_worker::run(&o),
        Some("report") => cmd_report::run(&o),
        #[expect(
            clippy::print_stderr,
            reason = "CLI error path: usage text for an unknown command"
        )]
        Some(other) => {
            eprintln!("unknown command '{other}'\n\n{HELP}");
            std::process::exit(2)
        }
        None => {
            out!("{HELP}");
            std::process::exit(2)
        }
    };
    #[expect(
        clippy::print_stderr,
        reason = "CLI error path: must print even when no recorder exists"
    )]
    if let Err(e) = result {
        eprintln!("isasgd {}: {e}", cmd.unwrap_or_default());
        std::process::exit(2);
    }
}
