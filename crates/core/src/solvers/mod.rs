//! The solver runtime: one engine, one sampler abstraction, thin
//! per-algorithm kernels.
//!
//! * [`plan`] — shared pre-training setup: importance weights, balancing
//!   decision, sharding, one
//!   [`ScheduleStream`](isasgd_sampling::ScheduleStream) per worker
//!   wrapping its shard's boxed [`Sampler`](isasgd_sampling::Sampler)
//!   (Algorithm 4 lines 2–12 and Algorithm 2 lines 2–3).
//! * [`solver`] — the [`Solver`] trait: a compute/apply
//!   split whose compute returns what it observed, plus epoch hooks and
//!   an optional lock-free [`SharedKernel`].
//! * [`engine`] — the shared [`run_engine`] epoch
//!   loop driving any solver under Sequential / `Threads(k)` /
//!   `Simulated{tau, workers}` execution, with timing, tracing, and
//!   adaptive-sampling feedback.
//! * [`sgd`] — the single kernel behind SGD, IS-SGD, ASGD and IS-ASGD
//!   (the paper's point: importance sampling leaves it untouched).
//! * [`svrg`] — SVRG-SGD / SVRG-ASGD (literature and skip-µ variants).
//!
//! Adding a solver is now a one-file change: implement
//! [`Solver`] and add one dispatch arm in
//! [`trainer`](crate::trainer); every sampling strategy and execution
//! mode comes for free.

pub mod engine;
pub mod plan;
pub mod sgd;
pub mod solver;
pub mod svrg;

pub use engine::{run_engine, RunMeta};
pub use solver::{Sched, SharedKernel, Solver};
