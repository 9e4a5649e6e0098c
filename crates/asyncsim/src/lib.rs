//! Deterministic bounded-staleness simulation of asynchronous SGD.
//!
//! **Why this exists.** The paper's concurrency axis runs to 44 hardware
//! threads; this reproduction must run anywhere. Its own analysis (§3.1,
//! perturbed iterate) abstracts concurrency into the *delay parameter τ*:
//! a gradient computed at logical time `t` is applied at time `t + τ`, so
//! every gradient is evaluated on a model missing up to τ in-flight
//! updates — `ŵ_t = w_t + θ_t` in Eq. 21. This crate implements exactly
//! that semantics, sequentially and deterministically:
//!
//! * [`DelayQueue`] — a FIFO holding at most τ in-flight items. An
//!   item's staleness is its position, so the queue needs no clock: τ
//!   for an item a push returns, less for the younger items an epoch-end
//!   barrier flushes before their τ expires.
//!
//! The solver runtime in `isasgd-core` drives its compute/apply-split
//! [`Solver`](../isasgd_core/solvers/solver/trait.Solver.html) updates
//! through the queue, drawing each worker's stream lazily round-robin —
//! at global step `t`, worker `t mod k` takes a step from its live
//! `ScheduleStream` (no schedule is ever materialized): with `τ = 0` the
//! simulation *is* the sequential algorithm (the queue passes items
//! straight through), and growing τ reproduces the convergence
//! degradation that the paper's Figures 3–5 show for 16/32/44 threads —
//! on any machine, with a fixed seed. (An earlier in-crate
//! `StalenessEngine` hard-coded the SGD kernel here, and an earlier
//! `round_robin_interleave` pre-materialized the worker schedules; both
//! were superseded by the streaming engine and removed.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod queue;

pub use queue::DelayQueue;
