//! The repo benchmark as a library, so its own tests can read what it
//! writes. `main.rs` is the command; see `benchmark/README.md`.

pub mod common;
pub mod compare;
pub mod env;
pub mod instances;
pub mod jobs;
pub mod json;
pub mod ladder;
pub mod metrics;
pub mod report;
pub mod simw;
pub mod spans;
pub mod stats;
pub mod tree;

use common::Workload;

/// The six workloads, in the order `BENCHMARK.json` lists them.
pub static WORKLOADS: [&dyn Workload; 6] = [
    &tree::TABLE2_1T,
    &tree::CILK_1T,
    &tree::STEAL_2T,
    &jobs::JOBS_FLOOD,
    &jobs::JOBS_HEAVY,
    &simw::SIM_8W,
];
