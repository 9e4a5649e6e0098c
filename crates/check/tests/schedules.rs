//! Committed schedules, one row each: the scenario, the decision bound
//! it was found under, the choice taken at every decision — a
//! `Counterexample::choices` (or a found run's decision log), pasted in
//! — and the verdict replaying it must reach. A violation the explorer
//! finds becomes a regression test by becoming a row of [`committed`].

use isasgd_check::{explore, run_schedule, Chooser, FaultSpec, Outcome, ScenarioSpec, Verdict};

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

/// `(scenario, max_decisions, choices, verdict)`.
type Row = (ScenarioSpec, usize, &'static [u32], Verdict);

/// The committed schedules.
fn committed() -> Vec<Row> {
    vec![
        // The DFS-first starving schedule of `drop_spec`: the round's
        // barrier, model and feedback batch go out, and the replica is
        // dropped, so the coordinator waits for it forever.
        (drop_spec(), 32, &[0, 0, 0, 1], Verdict::ExpectedDeadlock),
        // One worker, two rounds, every fault: round 1's feedback batch
        // is duplicated, and the mirror absorbs the copy idempotently.
        // A mirror that summed repeated observations of a row instead
        // of keeping their max found this one.
        (
            ScenarioSpec {
                nodes: 1,
                faults: FaultSpec::all(2),
                ..ScenarioSpec::default()
            },
            48,
            &[0, 0, 0, 0, 0, 0, 1, 0],
            Verdict::Pass,
        ),
    ]
}

/// Re-executes exactly `choices`, requiring the run to take every one
/// of them and no other decision.
fn replay(spec: &ScenarioSpec, max_decisions: usize, choices: &[u32]) -> Outcome {
    let chooser = Chooser::replay(choices.to_vec(), max_decisions);
    let (outcome, chooser) = run_schedule(spec, chooser);
    assert_eq!(
        (outcome.aborted, chooser.decisions()),
        (None, choices.len()),
        "the code under test no longer offers the choices {choices:?}"
    );
    outcome
}

#[test]
fn committed_schedules_replay_to_their_verdicts() {
    for (spec, max_decisions, choices, verdict) in committed() {
        for attempt in 0..3 {
            let outcome = replay(&spec, max_decisions, choices);
            assert_eq!(outcome.verdict, verdict, "{choices:?}, attempt {attempt}");
        }
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
fn a_found_schedule_replays_to_its_verdict() {
    let spec = drop_spec();
    let choices = first_expected_deadlock(&spec, 32);
    let outcome = replay(&spec, 32, &choices);
    assert_eq!(outcome.verdict, Verdict::ExpectedDeadlock);
    assert!(outcome.deadlocked, "{outcome:?}");
    assert_eq!(outcome.counts.drops, 1);
    // It is the committed row: the explorer still finds it first.
    let (_, _, row, _) = committed()[0].clone();
    assert_eq!(choices, row);
}
