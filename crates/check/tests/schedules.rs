//! The `.schedule` format end to end: a schedule the explorer found is
//! written, read back and replayed to the verdict it was found with,
//! and every committed `*.schedule` under `tests/schedules/` replays
//! to its own recorded outcome — a counterexample found later becomes
//! a regression test by being committed there.

use isasgd_check::{
    explore, read_schedule, run_schedule, write_schedule, Expected, FaultSpec, ScenarioSpec,
    ScheduleFile, Verdict,
};
use std::path::PathBuf;

/// One worker, one round, one dropped frame: some schedules lose a
/// frame the protocol needs and starve.
fn drop_spec() -> ScenarioSpec {
    ScenarioSpec {
        nodes: 1,
        rounds: 1,
        rows: 48,
        faults: FaultSpec {
            drop: true,
            budget: 1,
            ..FaultSpec::none()
        },
        ..ScenarioSpec::default()
    }
}

/// The DFS-first schedule of `spec` judged `ExpectedDeadlock`, as the
/// choices that drive it.
fn first_expected_deadlock(spec: &ScenarioSpec, max_decisions: usize) -> Vec<u32> {
    let mut found = None;
    let out = explore(max_decisions, |ch| {
        let (outcome, chooser) = run_schedule(spec, std::mem::take(ch));
        *ch = chooser;
        if found.is_none() && outcome.aborted.is_none() {
            if let Verdict::ExpectedDeadlock = outcome.verdict {
                found = Some(ch.log().iter().map(|&(c, _)| c).collect());
            }
        }
        outcome.verdict
    });
    assert!(out.stats.exhaustive(), "{:?}", out.stats);
    found.unwrap_or_else(|| panic!("no schedule starved: {:?}", out.stats))
}

#[test]
fn a_found_schedule_replays_to_its_verdict_from_its_bytes() {
    let spec = drop_spec();
    let file = ScheduleFile {
        spec,
        max_decisions: 32,
        expected: Expected::ExpectedDeadlock,
        contains: String::new(),
        choices: first_expected_deadlock(&spec, 32),
    };
    let read = read_schedule(&write_schedule(&file)).unwrap();
    assert_eq!(read, file);
    for attempt in 0..3 {
        let outcome = read
            .replay()
            .unwrap_or_else(|e| panic!("attempt {attempt}: {e}"));
        assert!(outcome.deadlocked, "attempt {attempt}: {outcome:?}");
        assert_eq!(outcome.counts.drops, 1, "attempt {attempt}");
    }
    // The same bytes under another outcome class are refused.
    let wrong = ScheduleFile {
        expected: Expected::Pass,
        ..read
    };
    assert!(wrong.replay().is_err());
}

#[test]
fn committed_counterexamples_replay_deterministically() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/schedules");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    paths.sort();
    for path in &paths {
        let file = read_schedule(&std::fs::read(path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        for attempt in 0..3 {
            if let Err(e) = file.replay() {
                panic!("{} (attempt {attempt}): replay failed: {e}", path.display());
            }
        }
    }
}
