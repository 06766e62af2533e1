//! The repo benchmark. See `README.md` beside this crate and
//! `BENCHMARK.json` at the repository root.

#![warn(missing_docs)]

pub mod calibrate;
pub mod ledger;
pub mod metrics;
pub mod micro;
pub mod replay;
pub mod runner;
pub mod seed;
pub mod stats;
pub mod timed;
pub mod workloads;
