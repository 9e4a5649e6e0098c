//! The historical teardown race, rediscovered systematically and
//! replayed from its committed `.schedule` counterexample.
//!
//! The race's fix can be reverted behind test-only `ProtocolBugs`
//! flags; the checker must (a) rediscover the race by bounded-exhaustive
//! exploration, (b) find exactly the committed counterexample (DFS is
//! deterministic), (c) reproduce it by replaying the committed bytes,
//! and (d) pass the same fault vocabulary once the fix is restored.
//! (The other historical race, a worker dropping round traffic that
//! arrived before its shard assignment, went with the assignment phase;
//! `model_check.rs` still explores reordered round starts clean.)
//!
//! Every `*.schedule` under `tests/schedules/` is replayed, not only
//! the race's: a counterexample found later becomes a regression test
//! by being committed there.
//!
//! To regenerate the race file after an intentional protocol change:
//! `REGEN_SCHEDULES=1 cargo test -p isasgd-check --test
//! pr4_regressions` and commit the rewritten `tests/schedules/pr4_*`.

use isasgd_check::{
    explore_scenario, read_schedule, write_schedule, Expected, Exploration, FaultSpec,
    ScenarioSpec, ScheduleFile,
};
use isasgd_cluster::ProtocolBugs;
use std::path::PathBuf;
use std::sync::mpsc::channel;
use std::time::Duration;

const MAX_DECISIONS: usize = 32;

fn explore_guarded(spec: ScenarioSpec) -> Exploration {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(explore_scenario(&spec, MAX_DECISIONS));
    });
    rx.recv_timeout(Duration::from_secs(240))
        .expect("exploration hung")
}

fn schedules_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/schedules")
}

fn schedule_path(name: &str) -> PathBuf {
    schedules_dir().join(name)
}

struct Race {
    file: &'static str,
    spec: ScenarioSpec,
    contains: &'static str,
}

/// The teardown race: the coordinator tearing links down eagerly
/// (before joining workers) races a trailing duplicated message; with
/// the historical strict extra-send propagation the worker dies on
/// `Closed` instead of the extra being swallowed best-effort.
fn teardown_race() -> Race {
    Race {
        file: "pr4_teardown_race.schedule",
        spec: ScenarioSpec {
            nodes: 1,
            rounds: 1,
            rows: 48,
            faults: FaultSpec {
                duplicate: true,
                budget: 1,
                ..FaultSpec::none()
            },
            bugs: ProtocolBugs {
                eager_link_teardown: true,
                strict_extra_sends: true,
            },
            ..ScenarioSpec::default()
        },
        contains: "Transport(Closed)",
    }
}

fn races() -> [Race; 1] {
    [teardown_race()]
}

/// Finds the race by exploration and builds the `.schedule` file its
/// counterexample serializes to.
fn rediscover(race: &Race) -> ScheduleFile {
    let out = explore_guarded(race.spec);
    assert!(
        out.stats.exhaustive(),
        "{}: exploration truncated: {:?}",
        race.file,
        out.stats.truncated
    );
    let ce = out.counterexample.unwrap_or_else(|| {
        panic!(
            "{}: the historical race was NOT rediscovered: {:?}",
            race.file, out.stats
        )
    });
    assert!(
        ce.what.contains(race.contains),
        "{}: rediscovered a different violation: {:?}",
        race.file,
        ce.what
    );
    ScheduleFile {
        spec: race.spec,
        max_decisions: MAX_DECISIONS,
        expected: Expected::Violation,
        contains: race.contains.to_string(),
        choices: ce.choices,
    }
}

/// (a) + (b): with the fix reverted, bounded-exhaustive exploration
/// rediscovers the race, and its DFS-least counterexample is exactly
/// the committed one, byte for byte.
#[test]
fn races_are_rediscovered_as_the_committed_counterexamples() {
    for race in races() {
        let found = write_schedule(&rediscover(&race));
        let path = schedule_path(race.file);
        if std::env::var_os("REGEN_SCHEDULES").is_some() {
            std::fs::write(&path, &found).unwrap();
            continue;
        }
        let committed = std::fs::read(&path)
            .unwrap_or_else(|e| panic!("missing committed schedule {}: {e}", path.display()));
        assert_eq!(
            committed, found,
            "{}: the committed counterexample is stale; regenerate with REGEN_SCHEDULES=1",
            race.file
        );
    }
}

/// (c): every committed `.schedule` replays deterministically to its
/// own recorded outcome, so committing a file makes it a regression
/// test; the race's file still holds the spec it was found under.
#[test]
fn committed_counterexamples_replay_deterministically() {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(schedules_dir())
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "schedule"))
        .collect();
    paths.sort();
    let races = races();
    for race in &races {
        assert!(
            paths.contains(&schedule_path(race.file)),
            "{}: not committed",
            race.file
        );
    }
    for path in &paths {
        let file = read_schedule(&std::fs::read(path).unwrap())
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        if let Some(race) = races.iter().find(|r| path.ends_with(r.file)) {
            assert_eq!(file.spec, race.spec, "{}: spec drifted", race.file);
        }
        for attempt in 0..3 {
            if let Err(e) = file.replay() {
                panic!("{} (attempt {attempt}): replay failed: {e}", path.display());
            }
        }
    }
}

/// (d): restoring the fix heals the exact committed schedule — the
/// same choices now drive a clean run — and the whole fault vocabulary
/// explores clean.
#[test]
fn fixed_code_passes_the_same_schedules_and_vocabulary() {
    for race in races() {
        let bytes = std::fs::read(schedule_path(race.file)).unwrap();
        let mut file = read_schedule(&bytes).unwrap();
        file.spec.bugs = ProtocolBugs::default();
        assert!(
            file.replay().is_err(),
            "{}: the schedule still violates with the fix restored",
            race.file
        );
        let fixed_spec = ScenarioSpec {
            bugs: ProtocolBugs::default(),
            ..race.spec
        };
        let out = explore_guarded(fixed_spec);
        assert!(out.stats.exhaustive());
        assert_eq!(
            out.stats.violations, 0,
            "{}: fixed code still violates: {:?}",
            race.file, out.counterexample
        );
    }
}
