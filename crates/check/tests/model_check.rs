//! The model checker against the cluster protocol's own machines:
//! exhaustive bounded exploration of small configurations, with every
//! completed schedule judged against the threaded in-process oracle.
//!
//! Every DFS search here must be exhaustive (no run cut by its decision
//! bound) and clean. The schedule counts they pin are the sizes of those
//! spaces: they move only when the protocol's message pattern or the
//! fault vocabulary does.
//!
//! Every exploration runs under a watchdog thread so a checker or
//! protocol regression that stops a search from ending fails loudly
//! instead of hanging the suite.

use isasgd_check::{
    explore_scenario, sample_scenario, Exploration, ExploreStats, FaultSpec, ScenarioSpec,
};
use std::sync::mpsc::channel;
use std::time::Duration;

fn explore_guarded(spec: ScenarioSpec, max_decisions: usize) -> Exploration {
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(explore_scenario(&spec, max_decisions));
    });
    rx.recv_timeout(Duration::from_secs(240))
        .expect("exploration hung: a stepped run never ended")
}

fn assert_clean(out: &Exploration) {
    assert!(
        out.counterexample.is_none(),
        "unexpected counterexample: {:?}",
        out.counterexample
    );
    assert_eq!(out.stats.violations, 0, "{:?}", out.stats);
}

/// Explores `spec`, requiring every schedule enumerated and none
/// violating an invariant.
fn explore_exhaustively(spec: ScenarioSpec, max_decisions: usize) -> ExploreStats {
    let out = explore_guarded(spec, max_decisions);
    assert_clean(&out);
    assert!(out.stats.exhaustive(), "{:?}", out.stats);
    out.stats
}

/// One worker, one round, no faults: everything is forced, so there is
/// exactly one schedule and it matches the oracle.
#[test]
fn single_worker_faultless_run_is_fully_forced() {
    let spec = ScenarioSpec {
        nodes: 1,
        rounds: 1,
        rows: 48,
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 32);
    assert_eq!(
        stats.schedules, 1,
        "a faultless SPSC protocol has no scheduling freedom: {stats:?}"
    );
}

/// One worker, one round, one reorder in a window of two: the round
/// start's barrier and model may arrive in either order, and the
/// worker machine must take both.
#[test]
fn one_worker_reordered_round_start_is_clean() {
    let spec = ScenarioSpec {
        nodes: 1,
        rounds: 1,
        rows: 48,
        faults: FaultSpec {
            reorder: true,
            reorder_window: 2,
            budget: 1,
            ..FaultSpec::none()
        },
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 32);
    assert_eq!(
        (stats.schedules, stats.expected_deadlocks),
        (3, 0),
        "{stats:?}"
    );
}

/// The flagship configuration: two workers, two rounds, the lossless
/// fault vocabulary (reorder, duplicate, hold), exhaustively explored
/// at depth 48. Lossless faults cannot starve the protocol. Cut at
/// depth 16 the same search is clean but not exhaustive: its
/// depth-capped runs left their subtrees unexplored.
#[test]
fn two_workers_two_rounds_lossless_faults_exhaustive() {
    let spec = ScenarioSpec {
        faults: FaultSpec::lossless(1),
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 48);
    assert_eq!(
        (stats.schedules, stats.expected_deadlocks),
        (242, 0),
        "{stats:?}"
    );
    let capped = explore_guarded(spec, 16);
    assert_clean(&capped);
    assert!(capped.stats.depth_capped > 0, "{:?}", capped.stats);
    assert!(!capped.stats.exhaustive(), "{:?}", capped.stats);
}

/// The whole fault vocabulary, drops included, with a budget of two
/// faults per schedule: dropping a required message may starve a run,
/// never corrupt one.
#[test]
fn one_worker_two_rounds_every_fault_exhaustive() {
    let spec = ScenarioSpec {
        nodes: 1,
        faults: FaultSpec::all(2),
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 48);
    assert_eq!(
        (stats.schedules, stats.expected_deadlocks),
        (238, 83),
        "{stats:?}"
    );
}

/// Static sampling sends no feedback batches: the feedback-free variant
/// of the protocol has a schedule space of its own.
#[test]
fn static_sampling_two_workers_two_rounds_lossless_exhaustive() {
    let spec = ScenarioSpec {
        adaptive: false,
        faults: FaultSpec::lossless(1),
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 48);
    assert_eq!(
        (stats.schedules, stats.expected_deadlocks),
        (50, 0),
        "{stats:?}"
    );
}

/// Checkpoint frames are real protocol traffic: with a checkpoint
/// cadence the workers emit `Checkpoint` state snapshots mid-session,
/// and the coordinator must absorb duplicated / reordered / held
/// copies idempotently — every completed schedule still bit-matches
/// the oracle. The frames must also genuinely enter the stepper's
/// vocabulary (more scheduling freedom than the checkpoint-free run).
#[test]
fn checkpoint_frames_are_absorbed_idempotently_under_lossless_faults() {
    let base = ScenarioSpec {
        faults: FaultSpec::lossless(1),
        ..ScenarioSpec::default()
    };
    let spec = ScenarioSpec {
        checkpoint_every: 1,
        ..base
    };
    let stats = explore_exhaustively(spec, 64);
    assert_eq!(
        (stats.schedules, stats.expected_deadlocks),
        (1219, 0),
        "nothing blocks on a checkpoint: {stats:?}"
    );
    let baseline = explore_exhaustively(base, 64);
    assert!(
        stats.schedules > baseline.schedules,
        "checkpoint frames must open real scheduling freedom: {} vs {}",
        stats.schedules,
        baseline.schedules
    );
}

/// A dropped `Checkpoint` frame must never corrupt a completing run:
/// the frame is advisory for recovery, so losing one degrades recovery
/// cost, not correctness.
#[test]
fn dropped_checkpoints_never_corrupt_a_completing_run() {
    let spec = ScenarioSpec {
        nodes: 1,
        rounds: 2,
        rows: 48,
        checkpoint_every: 1,
        faults: FaultSpec {
            drop: true,
            budget: 1,
            ..FaultSpec::none()
        },
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 64);
    assert!(
        stats.schedules > stats.expected_deadlocks,
        "some schedules must still complete: {stats:?}"
    );
}

/// Message loss: dropped messages may starve the protocol (expected
/// deadlocks), but must never corrupt a completing run.
#[test]
fn drops_starve_but_never_corrupt() {
    let spec = ScenarioSpec {
        nodes: 1,
        rounds: 1,
        rows: 48,
        faults: FaultSpec {
            drop: true,
            budget: 1,
            ..FaultSpec::none()
        },
        ..ScenarioSpec::default()
    };
    let stats = explore_exhaustively(spec, 32);
    assert!(
        stats.expected_deadlocks > 0,
        "dropping a required message must starve some schedule: {stats:?}"
    );
    assert!(
        stats.schedules > stats.expected_deadlocks,
        "some schedules must still complete: {stats:?}"
    );
}

/// Random-walk sampling: the big-config mode also holds the invariants
/// and reports its truncation honestly.
#[test]
fn random_walks_hold_invariants_on_a_bigger_config() {
    let spec = ScenarioSpec {
        nodes: 3,
        rounds: 3,
        rows: 120,
        faults: FaultSpec::lossless(2),
        ..ScenarioSpec::default()
    };
    let (tx, rx) = channel();
    std::thread::spawn(move || {
        let _ = tx.send(sample_scenario(&spec, 96, 40, 0xC0FFEE));
    });
    let out = rx
        .recv_timeout(Duration::from_secs(240))
        .expect("sampling hung");
    assert_clean(&out);
    assert!(out.stats.schedules > 0);
    assert!(
        out.stats
            .truncated
            .as_deref()
            .unwrap_or("")
            .contains("random walk"),
        "{:?}",
        out.stats.truncated
    );
}
