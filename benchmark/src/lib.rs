//! The benchmark of the `cots-serve` stack that `BENCHMARK.json`
//! describes: five workloads on one shared shape, five end-to-end metrics
//! per workload, and a traced run that reports what each layer costs.
//!
//! `run.sh` builds `cots-serve` and this package and runs the
//! `cots-benchmark` binary; `README.md` says why each workload and
//! metric is here.

#![warn(missing_docs)]

pub mod block;
pub mod compare;
pub mod driver;
pub mod layers;
pub mod reduce;
pub mod report;
pub mod restart;
pub mod schedule;
pub mod server;
pub mod span;
pub mod spec;
pub mod window;
