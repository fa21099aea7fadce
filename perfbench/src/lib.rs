//! `perfbench` — the real-executor benchmark.
//!
//! Runs the six execution strategies (sequential interpreter,
//! implicit, memoized implicit, SPMD, hybrid, shared log) on the real
//! executors, times each layer from outside by calling the public entry
//! points and reading the runtime's public metrics registry and trace
//! blame, and checks every result against the sequential interpreter.
//! See `README.md` in this directory for the workloads and metrics.

pub mod layers;
pub mod report;
pub mod run;
pub mod serve;
pub mod solve;
pub mod workload;

pub use report::{RunResult, END_TO_END};
pub use run::{run, Options};
pub use workload::{Scale, Workload};
