//! Lock-free shared model for Hogwild-style asynchronous SGD.
//!
//! The paper's ASGD substrate (Recht et al.'s Hogwild) updates a single
//! shared parameter vector from many threads with **no locks**: each
//! coordinate update is an independent atomic read-modify-write with
//! `Relaxed` ordering. Rust has no `AtomicF64`, so parameters are stored as
//! `AtomicU64` bit-patterns (see *Rust Atomics and Locks*, ch. 2-3).
//!
//! Every write goes through one primitive, [`SharedModel::update`]: replace
//! `w_j` by `f(w_j)` for a caller-supplied pure `f`, in one of two
//! [`UpdateMode`](shared::UpdateMode)s:
//!
//! * `AtomicCas` — a compare-exchange loop over the whole map, matching
//!   the "atomic coordinate update" analysis model. The GLM step kernel
//!   (`isasgd_losses::kernel`) passes the gradient axpy *and* the
//!   regularizer subgradient as a single `f`, so the regularized write
//!   `w_j ↦ (w_j + c·x_j) − s·r'(w_j + c·x_j)` is one CAS: no update is
//!   lost and no regularizer step can be separated from its gradient step.
//! * `RacyHogwild` — a *separate* relaxed load and store, the literal
//!   Hogwild implementation where concurrent writes may stomp each other.
//!   Both are exposed because the paper's convergence analysis (§3.1)
//!   models the *perturbed iterate* noise that this racing produces.
//!
//! With one worker thread both modes are the dense arithmetic exactly, so
//! a 1-thread Hogwild run is bit-equal to the sequential run.
//!
//! Everything here is safe Rust: races happen through atomics, never
//! through UB.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod saved;
pub mod shared;

pub use saved::{ModelIoError, SavedModel};
pub use shared::SharedModel;
