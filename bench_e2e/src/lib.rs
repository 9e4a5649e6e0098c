//! `bench_e2e`: the repository's benchmark.
//!
//! It drives the public entry points `isasgd_core::train` and
//! `isasgd_cluster::run` on seeded `isasgd_datagen` datasets and reports,
//! per workload, the paper's headline (wall-clock time to a target error
//! rate) with throughput, set-up time and memory beside it; a separate
//! traced run times calls into each layer's public functions from
//! outside and prints a per-layer budget. `README.md` in this directory
//! lists every metric and workload and how a perf issue must cite them;
//! `../BENCHMARK.json` is the contract the driver reads.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod json;
pub mod layers;
pub mod run;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
