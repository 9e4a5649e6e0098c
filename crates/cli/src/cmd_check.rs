//! `isasgd check` — the deterministic protocol model checker.
//!
//! Explores message schedules of a small cluster configuration
//! systematically (bounded-exhaustive DFS by default, seeded random
//! walks with `--walks`), judging every completed schedule against the
//! sequential-engine oracle; or replays a committed `.schedule`
//! counterexample byte-for-byte.
//!
//! Exit codes: 0 = clean (or replay reproduced its expectation),
//! 1 = violation found (or replay diverged), 2 = usage error.

use crate::opts::Opts;
use isasgd_check::{
    explore_scenario, read_schedule, sample_scenario, write_schedule, Budget, Expected,
    Exploration, FaultSpec, ScenarioSpec, ScheduleFile,
};
use isasgd_cluster::ProtocolBugs;
use std::time::Duration;

/// The model checker's report channel. `check` runs install no
/// recorder, so every line of the report goes straight to stderr.
#[expect(
    clippy::print_stderr,
    reason = "model-checker report channel; `check` runs install no recorder"
)]
fn say(line: std::fmt::Arguments<'_>) {
    eprintln!("{line}");
}

fn parse_faults(s: &str, window: u8, budget: u8) -> Result<FaultSpec, String> {
    let mut f = FaultSpec {
        reorder_window: window,
        budget,
        ..FaultSpec::none()
    };
    for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tok {
            "none" => {
                f = FaultSpec {
                    reorder_window: window,
                    budget,
                    ..FaultSpec::none()
                }
            }
            "lossless" => {
                f = FaultSpec {
                    reorder_window: window,
                    ..FaultSpec::lossless(budget)
                }
            }
            "all" => {
                f = FaultSpec {
                    reorder_window: window,
                    ..FaultSpec::all(budget)
                }
            }
            "reorder" => f.reorder = true,
            "duplicate" | "dup" => f.duplicate = true,
            "hold" | "delay" => f.hold = true,
            "drop" => f.drop = true,
            other => {
                return Err(format!(
                    "unknown fault '{other}' (known: none, lossless, all, reorder, \
                     duplicate, hold, drop)"
                ))
            }
        }
    }
    Ok(f)
}

fn parse_bugs(s: &str) -> Result<ProtocolBugs, String> {
    let mut b = ProtocolBugs::default();
    for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
        match tok {
            "drop-preassignment" => b.drop_preassignment_traffic = true,
            "eager-teardown" => b.eager_link_teardown = true,
            "strict-extras" => b.strict_extra_sends = true,
            other => {
                return Err(format!(
                    "unknown bug '{other}' (known: drop-preassignment, eager-teardown, \
                     strict-extras)"
                ))
            }
        }
    }
    Ok(b)
}

fn report(out: &Exploration, quiet: bool, require_exhaustive: bool) -> i32 {
    let s = &out.stats;
    if !quiet {
        say(format_args!(
            "schedules explored : {} ({} decisions, max depth {})",
            s.schedules, s.decisions, s.max_depth_seen
        ));
        say(format_args!(
            "expected deadlocks : {} (starvation under drop faults)",
            s.expected_deadlocks
        ));
        say(format_args!("pruned (state hash): {}", s.pruned));
        say(format_args!("depth-capped runs  : {}", s.depth_capped));
        match &s.truncated {
            // Never silent: either the space was exhausted or the reason
            // it was not is printed.
            None => say(format_args!("coverage           : exhaustive")),
            Some(why) => say(format_args!("coverage           : TRUNCATED — {why}")),
        }
    }
    match &out.counterexample {
        None => {
            if let (true, Some(why)) = (require_exhaustive, &out.stats.truncated) {
                say(format_args!(
                    "FAILED             : --require-exhaustive, but the search was cut off ({why})"
                ));
                return 1;
            }
            if !quiet {
                say(format_args!("verdict            : no invariant violations"));
            }
            0
        }
        Some(ce) => {
            say(format_args!("VIOLATION          : {}", ce.what));
            say(format_args!("counterexample     : {:?}", ce.choices));
            1
        }
    }
}

/// Runs the command; `main` turns an error into exit 2.
pub fn run(o: &Opts) -> Result<i32, String> {
    let replay = o.get("replay");
    let write = o.get("write");
    let nodes = o
        .get_parsed_or("nodes", 2usize, "usize")
        .map_err(|e| e.to_string())?;
    let rounds = o
        .get_parsed_or("rounds", 2usize, "usize")
        .map_err(|e| e.to_string())?;
    let local_epochs = o
        .get_parsed_or("local-epochs", 1usize, "usize")
        .map_err(|e| e.to_string())?;
    let rows = o
        .get_parsed_or("rows", 96u32, "u32")
        .map_err(|e| e.to_string())?;
    let seed = o
        .get_parsed_or("seed", 0x15A5_6D00u64, "u64")
        .map_err(|e| e.to_string())?;
    let checkpoint_every = o
        .get_parsed_or("checkpoint-every", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let depth = o
        .get_parsed_or("depth", 48usize, "usize")
        .map_err(|e| e.to_string())?;
    let window = o
        .get_parsed_or("window", 2u8, "u8")
        .map_err(|e| e.to_string())?;
    let budget = o
        .get_parsed_or("budget", 1u8, "u8")
        .map_err(|e| e.to_string())?;
    let max_schedules = o
        .get_parsed_or("max-schedules", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let time_budget = o
        .get_parsed_or("time-budget", 0u64, "u64 seconds")
        .map_err(|e| e.to_string())?;
    let walks = o
        .get_parsed_or("walks", 0u64, "u64")
        .map_err(|e| e.to_string())?;
    let walk_seed = o
        .get_parsed_or("walk-seed", 0xC0_FFEE_u64, "u64")
        .map_err(|e| e.to_string())?;
    let faults = parse_faults(&o.get_or("faults", "lossless"), window, budget)?;
    let bugs = parse_bugs(&o.get_or("bugs", ""))?;
    let is_static = o.switch("static");
    let require_exhaustive = o.switch("require-exhaustive");
    let quiet = o.switch("quiet");
    o.finish().map_err(|e| e.to_string())?;

    if let Some(path) = replay {
        let bytes = std::fs::read(&path).map_err(|e| format!("read {path}: {e}"))?;
        let file = read_schedule(&bytes).map_err(|e| format!("{path}: {e}"))?;
        if !quiet {
            say(format_args!(
                "replaying {path}: {} choices against {:?} (faults {:?}, bugs {:?})",
                file.choices.len(),
                (file.spec.nodes, file.spec.rounds),
                file.spec.faults,
                file.spec.bugs
            ));
        }
        return match file.replay() {
            Ok(outcome) => {
                if !quiet {
                    say(format_args!(
                        "reproduced expected outcome: {:?}",
                        outcome.verdict
                    ));
                }
                Ok(0)
            }
            Err(e) => {
                say(format_args!("replay FAILED: {e}"));
                Ok(1)
            }
        };
    }

    let spec = ScenarioSpec {
        nodes,
        rounds,
        local_epochs,
        rows,
        seed,
        adaptive: !is_static,
        checkpoint_every,
        faults,
        bugs,
    };
    if !quiet {
        say(format_args!(
            "checking {nodes} worker(s) x {rounds} round(s), depth {depth}, faults {faults:?}{}",
            if bugs == ProtocolBugs::default() {
                String::new()
            } else {
                format!(", bugs {bugs:?}")
            }
        ));
    }
    let out = if walks > 0 {
        sample_scenario(&spec, depth, walks, walk_seed)
    } else {
        let budget = Budget {
            max_runs: max_schedules,
            wall_clock: (time_budget > 0).then(|| Duration::from_secs(time_budget)),
        };
        explore_scenario(&spec, depth, budget)
    };
    let code = report(&out, quiet, require_exhaustive);
    if let (Some(path), Some(ce)) = (&write, &out.counterexample) {
        let file = ScheduleFile {
            spec,
            max_decisions: depth,
            expected: Expected::Violation,
            contains: ce.what.clone(),
            choices: ce.choices.clone(),
        };
        std::fs::write(path, write_schedule(&file)).map_err(|e| format!("write {path}: {e}"))?;
        say(format_args!("counterexample written to {path}"));
    }
    Ok(code)
}

/// Usage string for `--help`.
pub const HELP: &str = "\
isasgd check [flags] — deterministic protocol model checker

Explores message schedules of a small cluster run systematically; every
completed schedule must match the sequential engine bit-for-bit. Exit
code 0 = clean, 1 = invariant violation found, 2 = usage error.

Scenario
  --nodes <k>          workers                              (default 2)
  --rounds <r>         synchronization rounds               (default 2)
  --local-epochs <e>   local epochs per round               (default 1)
  --rows <n>           synthetic dataset rows               (default 96)
  --seed <s>           cluster RNG seed                     (default 0x15a56d00)
  --static             static sampling (default: adaptive feedback)
  --checkpoint-every <r>  workers emit Checkpoint frames every r rounds
                       (0 = disabled); the coordinator must absorb them
                       without perturbing bit-identity  (default 0)

Fault vocabulary (what the scheduler may do to messages)
  --faults <list>      comma list of reorder,duplicate,hold,drop —
                       or none / lossless / all          (default lossless)
  --window <w>         reorder window depth                 (default 2)
  --budget <b>         total fault-action budget            (default 1)
  --bugs <list>        re-enable historical bugs: drop-preassignment,
                       eager-teardown, strict-extras     (default none)

Exploration budget (truncation is always reported, never silent)
  --depth <d>          max scheduling decisions per run     (default 48)
  --max-schedules <n>  stop after n schedules (0 = unlimited)
  --time-budget <s>    stop after s seconds    (0 = unlimited)
  --walks <n>          sample n seeded random walks instead of DFS
  --walk-seed <s>      walk RNG seed                        (default 0xc0ffee)
  --require-exhaustive exit 1 when the search is cut off by any budget,
                       even without a violation (the CI contract)

Counterexamples
  --write <file>       serialize the first violation as a .schedule file
  --replay <file>      re-execute a committed .schedule byte-for-byte;
                       exit 0 iff it reproduces its recorded outcome
  --quiet              suppress progress; print only violations
";

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::Opts;

    fn opts(s: &str) -> Opts {
        Opts::parse(s.split_whitespace().map(|x| x.to_string()))
    }

    #[test]
    fn bad_fault_token_is_usage_error() {
        assert!(run(&opts("check --faults gremlins")).is_err());
    }

    #[test]
    fn bad_bug_token_is_usage_error() {
        assert!(run(&opts("check --bugs y2k")).is_err());
    }

    #[test]
    fn unknown_flag_is_usage_error() {
        assert!(run(&opts("check --dpeth 4")).is_err());
    }

    #[test]
    fn missing_replay_file_is_usage_error() {
        assert!(run(&opts("check --replay /nonexistent/x.schedule")).is_err());
    }

    #[test]
    fn faultless_single_worker_is_clean() {
        assert_eq!(
            run(&opts(
                "check --nodes 1 --rounds 1 --rows 48 --faults none --depth 32 --quiet"
            )),
            Ok(0)
        );
    }

    #[test]
    fn checkpointing_workers_explore_clean() {
        // The Checkpoint frames a worker emits every round must be
        // absorbed by the coordinator without opening a violation.
        assert_eq!(
            run(&opts(
                "check --nodes 1 --rounds 2 --rows 48 --checkpoint-every 1 \
                 --faults none --depth 48 --require-exhaustive --quiet"
            )),
            Ok(0)
        );
    }

    #[test]
    fn bad_checkpoint_every_is_usage_error() {
        assert!(run(&opts("check --checkpoint-every often")).is_err());
    }

    #[test]
    fn known_bug_is_rediscovered_with_exit_code_1() {
        assert_eq!(
            run(&opts(
                "check --nodes 1 --rounds 1 --rows 48 --faults reorder \
                 --bugs drop-preassignment --depth 32 --quiet"
            )),
            Ok(1)
        );
    }

    #[test]
    fn require_exhaustive_turns_truncation_into_failure() {
        let flags = "check --nodes 1 --rounds 1 --rows 48 --faults lossless --depth 32 --quiet";
        // Truncated by --max-schedules: clean exit without the flag,
        // failure with it; the full search is exhaustive either way.
        assert_eq!(run(&opts(&format!("{flags} --max-schedules 1"))), Ok(0));
        assert_eq!(
            run(&opts(&format!(
                "{flags} --max-schedules 1 --require-exhaustive"
            ))),
            Ok(1)
        );
        assert_eq!(run(&opts(&format!("{flags} --require-exhaustive"))), Ok(0));
    }

    #[test]
    fn fault_spec_parsing_composes() {
        let f = parse_faults("reorder,dup", 3, 2).unwrap();
        assert!(f.reorder && f.duplicate && !f.hold && !f.drop);
        assert_eq!((f.reorder_window, f.budget), (3, 2));
        let all = parse_faults("all", 2, 1).unwrap();
        assert!(all.reorder && all.duplicate && all.hold && all.drop);
        assert_eq!(all.reorder_window, 2);
    }
}
