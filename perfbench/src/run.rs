//! One checked simulated run, decomposed into timed calls.
//!
//! [`checked_run`] does what `BuiltKernel::run` does — attach the right
//! engine, open a session, run, compare against the expectation — but
//! as separate spans (`core.new`, `sim.setup.*`, `sim.exec.*`,
//! `bench.check`) and with the engine behind a [`CountingEngine`], so
//! the traced run can attribute a run's time to the executor, the
//! controller and the benchmark's own checking.

use crate::engine::{CountingEngine, HookCounts};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;
use zolc_bench::MAX_FUEL;
use zolc_core::Zolc;
use zolc_ir::Target;
use zolc_kernels::Expectation;
use zolc_sim::{CompiledProgram, CpuConfig, Executor, ExecutorKind, LoopEngine, NullEngine, Stats};

/// Short tier label used in metric names.
pub fn tier(kind: ExecutorKind) -> &'static str {
    match kind {
        ExecutorKind::CycleAccurate => "pipeline",
        ExecutorKind::Functional => "functional",
        ExecutorKind::Compiled => "compiled",
        ExecutorKind::Nest => "nest",
        _ => "other",
    }
}

fn setup_span(kind: ExecutorKind) -> &'static str {
    match kind {
        ExecutorKind::CycleAccurate => "sim.setup.pipeline",
        ExecutorKind::Functional => "sim.setup.functional",
        ExecutorKind::Compiled => "sim.setup.compiled",
        ExecutorKind::Nest => "sim.setup.nest",
        _ => "sim.setup.other",
    }
}

fn exec_span(kind: ExecutorKind, active: bool) -> &'static str {
    match (kind, active) {
        (ExecutorKind::CycleAccurate, false) => "sim.exec.pipeline.passive",
        (ExecutorKind::CycleAccurate, true) => "sim.exec.pipeline.active",
        (ExecutorKind::Functional, false) => "sim.exec.functional.passive",
        (ExecutorKind::Functional, true) => "sim.exec.functional.active",
        (ExecutorKind::Compiled, false) => "sim.exec.compiled.passive",
        (ExecutorKind::Compiled, true) => "sim.exec.compiled.active",
        (ExecutorKind::Nest, false) => "sim.exec.nest.passive",
        (ExecutorKind::Nest, true) => "sim.exec.nest.active",
        _ => "sim.exec.other",
    }
}

/// Execution time and retired instructions of a class of runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecTally {
    /// Host nanoseconds inside `Executor::run`.
    pub ns: u64,
    /// Instructions retired.
    pub retired: u64,
}

/// What the traced runs of a workload counted.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    /// Hook counts of every wrapped run.
    pub hooks: HookCounts,
    /// Hook counts of runs with an active engine.
    pub active_hooks: HookCounts,
    /// Instructions retired by runs with an active engine.
    pub active_retired: u64,
    /// Hook counts of the timed-hook probe runs.
    pub timed_hooks: HookCounts,
    /// Instructions retired by the timed-hook probe runs.
    pub timed_retired: u64,
    /// Controller consistency violations.
    pub violations: u64,
    /// Instructions retired, all runs.
    pub retired: u64,
    /// Simulated cycles, all runs.
    pub cycles: u64,
    /// Per `(tier, active)` execution tallies.
    pub exec: BTreeMap<(&'static str, bool), ExecTally>,
    /// Loops handed to `retarget` (hardware-mapped plus refused).
    pub loops_attempted: u64,
    /// Loops `retarget` mapped onto hardware.
    pub hw_loops: u64,
    /// Loops `retarget` left in software.
    pub refusals: u64,
}

impl Counters {
    /// Records one `retarget` outcome.
    pub fn retarget_outcome(&mut self, hw: usize, unhandled: usize) {
        self.loops_attempted += (hw + unhandled) as u64;
        self.hw_loops += hw as u64;
        self.refusals += unhandled as u64;
    }
}

/// How a [`checked_run`] treats the engine's hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hooks {
    /// No wrapper (the program's own path).
    Plain,
    /// Counted by a [`CountingEngine`].
    Counted,
    /// Counted and timed (probe runs outside the accounted time).
    Timed,
}

/// Runs `program` for `target` on `kind` and checks it against `expect`.
///
/// # Errors
///
/// A description of the run error, the mismatches or the controller
/// violations — each a failed op.
pub fn checked_run(
    tr: &mut Tracer,
    c: &mut Counters,
    kind: ExecutorKind,
    program: &Arc<CompiledProgram>,
    target: &Target,
    expect: &Expectation,
    hooks: Hooks,
) -> Result<Stats, String> {
    let mut zolc = match target {
        Target::Zolc(cfg) => Some(tr.span("core.new", |_| Zolc::new(*cfg))),
        _ => None,
    };
    let mut null = NullEngine;
    let inner: &mut dyn LoopEngine = match zolc.as_mut() {
        Some(z) => z,
        None => &mut null,
    };
    let mut cpu = tr
        .span(setup_span(kind), |_| {
            kind.new_session(program, CpuConfig::default())
        })
        .map_err(|e| format!("session: {e}"))?;
    let active = !inner.is_passive();
    let t0 = Instant::now();
    let (result, counts) = if hooks == Hooks::Plain {
        let r = tr.span(exec_span(kind, active), |_| cpu.run(inner, MAX_FUEL));
        (r, HookCounts::default())
    } else {
        let mut eng = CountingEngine::new(inner, hooks == Hooks::Timed);
        let r = tr.span(exec_span(kind, active), |_| cpu.run(&mut eng, MAX_FUEL));
        (r, eng.counts)
    };
    let ns = t0.elapsed().as_nanos() as u64;
    let stats = result.map_err(|e| format!("run: {e}"))?;

    if hooks == Hooks::Timed {
        c.timed_hooks.add(&counts);
        c.timed_retired += stats.retired;
    } else {
        let tally = c.exec.entry((tier(kind), active)).or_default();
        tally.ns += ns;
        tally.retired += stats.retired;
        c.hooks.add(&counts);
        if active {
            c.active_hooks.add(&counts);
            c.active_retired += stats.retired;
        }
        c.retired += stats.retired;
        c.cycles += stats.cycles;
    }
    let violations = zolc.as_ref().map_or(0, |z| z.violations().len());
    c.violations += violations as u64;
    let mismatches = tr.span("bench.check", |_| mismatches(&*cpu, expect));
    if mismatches > 0 || violations > 0 {
        return Err(format!(
            "{mismatches} mismatches, {violations} controller violations"
        ));
    }
    Ok(stats)
}

/// Number of expectation entries the session's final state misses (an
/// unreadable region counts as one).
pub fn mismatches(cpu: &dyn Executor, expect: &Expectation) -> usize {
    let mut n = 0;
    for (addr, words) in &expect.mem_words {
        match cpu.mem().read_words(*addr, words.len()) {
            Ok(got) => n += got.iter().zip(words).filter(|(g, w)| g != w).count(),
            Err(_) => n += 1,
        }
    }
    n + expect
        .regs
        .iter()
        .filter(|(r, v)| cpu.regs().read(*r) != *v)
        .count()
}
