//! `isasgd-check`: a deterministic protocol model checker for the
//! isasgd cluster runtime.
//!
//! The checker runs the *real* coordinator / `NodeRuntime` code over a
//! model transport whose every delivery, duplication, delay, drop, and
//! teardown step is decided by a central scheduler, then explores the
//! schedule space systematically (bounded-depth DFS with state-hash
//! pruning) and judges each completed schedule against the protocol's
//! invariants:
//!
//! * **no deadlock** — unless a drop fault consumed a required message,
//!   in which case starvation is the *expected* outcome;
//! * **oracle equality** — the final model is bit-identical to the
//!   sequential in-process engine on every schedule;
//! * **idempotent absorption** — duplicated feedback inflates traffic
//!   counters, never the result;
//! * **no leaks** — at teardown of a clean run, no message content is
//!   both undelivered and unaccounted for.
//!
//! Violations serialize as compact `.schedule` replay files (see
//! [`replay`]) that re-execute the exact interleaving as ordinary
//! tests.
//!
//! Module map: [`explore`] (chooser + DFS engine), [`sched`] (the
//! model transport and scheduler), [`scenario`] (real cluster runs
//! under the scheduler, invariant judging), [`replay`] (the
//! `.schedule` wire format).

#![forbid(unsafe_code)]

pub mod explore;
pub mod replay;
pub mod scenario;
pub mod sched;

pub use explore::{
    explore, AbortKind, Choice, Chooser, Counterexample, Exploration, ExploreStats, Verdict,
};
pub use replay::{read_schedule, write_schedule, Expected, ScheduleFile};
pub use scenario::{explore_scenario, run_schedule, sample_scenario, Outcome, ScenarioSpec};
pub use sched::{FaultCounts, FaultSpec, ModelEndpoint, SchedHandle, SchedReport, Scheduler};
