//! `isasgd-check`: a deterministic protocol model checker for the
//! isasgd cluster runtime.
//!
//! The checker steps the cluster's own transport-free machines — the
//! `Coordinator` and one `Worker` per node, the code every transport
//! drives — on one thread, with every delivery, duplication, hold,
//! drop and reordering of their frames decided by a [`Chooser`]. It
//! explores that schedule space systematically (bounded-depth DFS with
//! state-hash pruning) and judges each completed schedule against the
//! protocol's invariants:
//!
//! * **no deadlock** — unless a drop fault consumed a required message,
//!   in which case starvation is the *expected* outcome;
//! * **oracle equality** — the final model is bit-identical to the
//!   threaded in-process run on every schedule;
//! * **idempotent absorption** — duplicated feedback inflates traffic
//!   counters, never the result;
//! * **no leaks** — at the end of a clean run, no frame's content is
//!   both undelivered and unaccounted for.
//!
//! A violation's [`Counterexample::choices`] is the exact interleaving:
//! committed as a row of `tests/schedules.rs` — the scenario, the
//! decision bound, the choice list and the verdict — it re-executes
//! through [`Chooser::replay`] and [`run_schedule`] as an ordinary
//! test, and reads in a diff as the numbers it is.
//!
//! Module map: [`explore`](mod@explore) (chooser + DFS engine),
//! [`scenario`] (the stepper, invariant judging).

#![forbid(unsafe_code)]

pub mod explore;
pub mod scenario;

pub use explore::{
    explore, AbortKind, Choice, Chooser, Counterexample, Exploration, ExploreStats, Verdict,
};
pub use scenario::{
    explore_scenario, run_schedule, sample_scenario, FaultCounts, FaultSpec, Outcome, ScenarioSpec,
};
