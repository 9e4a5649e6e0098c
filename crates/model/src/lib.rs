//! Lock-free shared model for Hogwild-style asynchronous SGD.
//!
//! The paper's ASGD substrate (Recht et al.'s Hogwild) updates a single
//! shared parameter vector from many threads with **no locks**: each
//! coordinate write is a `Relaxed` load followed by a `Relaxed` store.
//! Rust has no `AtomicF64`, so parameters are stored as `AtomicU64`
//! bit-patterns (see *Rust Atomics and Locks*, ch. 2-3).
//!
//! Every write goes through one primitive, [`SharedModel::update`]: replace
//! `w_j` by `f(w_j)` for a caller-supplied `f`. The GLM step kernel
//! (`isasgd_losses::kernel`) passes the gradient axpy *and* the
//! regularizer subgradient as a single `f`, so the regularized write
//! `w_j ↦ (w_j + c·x_j) − s·r'(w_j + c·x_j)` is one store and no
//! regularizer step is ever separated from its gradient step.
//!
//! Two threads that write the same coordinate at once may lose one of
//! their increments — the store of one overwrites the other's. That is
//! the literal Hogwild update, and the paper's convergence analysis
//! (§3.1) models exactly the *perturbed iterate* noise this racing
//! produces. A coordinate is one atomic word, so a value is never torn.
//!
//! With one worker thread the write is the dense arithmetic exactly, so
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
