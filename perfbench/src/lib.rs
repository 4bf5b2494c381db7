//! # zolc-perfbench — the stage-attributed benchmark of the zolc toolchain
//!
//! Four workloads (see `README.md` for why each was chosen):
//! `e7_sweep`, `fig2_kernels`, `corpus_zolcc` and `zolcd_mixed`. An
//! untraced run reports the end-to-end metrics every workload shares; a
//! traced run times each call the workload makes into a crate's public
//! API ([`trace`]), counts controller hooks through a delegating engine
//! ([`engine`]) and reports the per-layer metrics. No tracing is added
//! to the crates under test. Times of the CPU-bound workloads are scaled
//! to a reference host speed ([`calib`]).

#![forbid(unsafe_code)]

pub mod calib;
pub mod engine;
pub mod report;
pub mod run;
pub mod trace;
pub mod workloads;
