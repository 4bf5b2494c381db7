//! # zolc-sim — layered processor simulation for the ZOLC study
//!
//! The simulator is split into three layers so instruction *semantics*
//! are written once and *timing* is a pluggable concern:
//!
//! 1. **Predecode** ([`TextImage`]) — the text segment is decoded once
//!    into a dense instruction array at program load; no executor
//!    re-decodes on its fetch path.
//! 2. **Semantics** ([`exec::step`]) — a pure function from
//!    `(instruction, pc, operand reader)` to an architectural
//!    [`Effect`]: what the instruction does, never when.
//! 3. **Executors** (the [`Executor`] trait, selected by
//!    [`ExecutorKind`]):
//!    * [`Cpu`] — the cycle-accurate single-issue, in-order, 5-stage
//!      (IF/ID/EX/MEM/WB) pipeline with full forwarding, a one-cycle
//!      load-use interlock, EX-resolved branches (2-cycle taken
//!      penalty), ID-resolved jumps and hardware-loop `dbnz` (1-cycle
//!      penalty). It stands in for the XiRisc soft core of *Kavvadias &
//!      Nikolaidis, DATE 2005* and produces the paper's metric: cycles.
//!    * [`FunctionalCpu`] — the fast functional executor: identical
//!      final registers, memory and retire counts, no cycle counts.
//!      Several times faster than the pipeline on cores without a loop
//!      controller (the passive-engine fast path); with a ZOLC
//!      controller attached it consults the controller at trigger pcs
//!      only. Use it for correctness sweeps and differential testing;
//!      use the pipeline whenever cycles are the answer.
//!    * [`CompiledCpu`] — the block-compiled functional executor: the
//!      text segment is compiled on first entry into basic-block
//!      superinstructions (pre-lowered op vectors, terminator handled
//!      once), compiled once per entry pc, falling back to the shared
//!      step core for `zwr`/`zctl`/`dbnz`, fetch faults and active
//!      engines. Same architectural results as `FunctionalCpu`,
//!      another ~2–3× faster on passive engines.
//!    * [`NestCpu`] — the loop-nest superblock executor: whole regions
//!      free of engine trigger pcs — counted loop nests included — are
//!      compiled once into trip-parameterized, direct-threaded op
//!      arrays whose canonical counted-loop latches fuse into counted
//!      repeat ops, with a zero-dispatch bulk path for innermost
//!      straight-line bodies. No per-iteration block lookup or
//!      terminator dispatch; steps `zwr`/`zctl`/`dbnz` and trigger pcs
//!      on the step core, and bails to it on faults and the fuel
//!      boundary at an instruction-exact resume point. The fastest tier
//!      with or without a controller — the sweep workhorse.
//!
//! All executors enforce one **fuel semantic**: the budget passed to
//! [`Executor::run`] counts *retired instructions* everywhere, so a
//! timeout ([`RunError::OutOfFuel`]) fires at the same instruction no
//! matter which backend runs the program.
//!
//! Loop controllers attach to any executor through the [`LoopEngine`]
//! trait, which mirrors the paper's Fig. 1 integration points: fetch-time
//! next-PC selection (zero-overhead redirect), retire-time commit, the
//! `zwr`/`zctl` coprocessor instructions and a dedicated index-register
//! write port. An engine publishes its **trigger set**
//! ([`LoopEngine::triggers`]), the pcs where it can act, like the
//! hardware's PC-decode comparators; every executor consults it there
//! only, with identical results, cycles and statistics.
//!
//! # Sessions over shared compiled programs
//!
//! The shared half of an executor — the predecoded text image and the
//! write-once compile tables of the two compiled tiers — lives in an
//! `Arc`-shareable [`CompiledProgram`]; an executor is a cheap per-run
//! **session**
//! (registers, data memory, pc, statistics) opened over it with
//! [`ExecutorKind::new_session`] or the concrete `session`
//! constructors. Compile once, run any number of concurrent sessions:
//! the sweep harness and the `zolcd` job daemon are built on exactly
//! this split. Session memory is page-granular ([`Memory`]), so opening
//! one costs the pages its segments occupy, not the configured size.
//!
//! # Examples
//!
//! ```
//! use zolc_sim::{run_program, run_session, CompiledProgram, ExecutorKind, NullEngine};
//!
//! let program = zolc_isa::assemble("
//!     li   r1, 100
//!     li   r2, 0
//! top: add  r2, r2, r1
//!     addi r1, r1, -1
//!     bne  r1, r0, top
//!     halt
//! ").unwrap();
//! // Cycle-accurate: the paper's metric.
//! let finished = run_program(&program, &mut NullEngine, 1_000_000)?;
//! assert_eq!(finished.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
//! // Functional: same architecture, no cycles, much faster — a fresh
//! // session over the shared compiled program.
//! let prog = CompiledProgram::compile(program);
//! let fast = run_session(ExecutorKind::Functional, &prog, &mut NullEngine, 1_000_000)?;
//! assert_eq!(fast.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
//! assert_eq!(fast.stats.retired, finished.stats.retired);
//! assert_eq!(fast.stats.cycles, 0);
//! # Ok::<(), zolc_sim::RunError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks;
mod cpu;
mod engine;
pub mod exec;
mod functional;
mod mem;
mod nest;
mod pipeline;
mod program;
mod regfile;
mod stats;

pub use blocks::CompiledCpu;
pub use cpu::{
    run_program, run_session, CpuConfig, Executor, ExecutorKind, Finished, RetireEvent, RunError,
};
pub use engine::{ExecEvent, FetchDecision, LoopEngine, NullEngine, RegWrites};
pub use exec::{Effect, FetchError, TextImage};
pub use functional::FunctionalCpu;
pub use mem::{MemError, MemErrorKind, Memory};
pub use nest::NestCpu;
pub use pipeline::Cpu;
pub use program::{CompiledProgram, TriggerCacheStats};
pub use regfile::RegFile;
pub use stats::Stats;
