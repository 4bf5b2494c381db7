//! `e7_sweep`: the E7 design-space sweep, `SweepConfig::new()` shape.
//!
//! Untraced, the measured phase calls `zolc_bench::run_sweep` on 100
//! seed blocks of 20 programs (100 cells each: baseline plus
//! uZOLC/ZOLClite/ZOLCfull/custom 2L/8T, cycle-accurate), cycling
//! through the blocks until the time is up; one call is one op. Traced, it runs the same cells single-threaded through the
//! public calls `run_sweep` makes internally — generate, assemble,
//! compile, functional reference run, baseline run, then per
//! configuration retarget, compile and run — each a span, alternating
//! traced and untraced blocks to measure the tracing overhead.

use super::{panic_message, repeated_setup, Params, Split};
use crate::calib::HostSpeed;
use crate::report::{median, repeat_medians, repeated_ops_per_s, Layers, Metric, Outcome};
use crate::run::{checked_run, Counters, Hooks};
use crate::trace::Tracer;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use zolc_bench::{run_sweep, SweepConfig, SweepReport, MAX_FUEL};
use zolc_cfg::retarget;
use zolc_gen::ProgramSpec;
use zolc_ir::Target;
use zolc_isa::{reg, DATA_BASE};
use zolc_kernels::Expectation;
use zolc_sim::{CompiledProgram, CpuConfig, ExecutorKind, NullEngine};

/// The configuration whose coverage and savings are reported.
const LITE: &str = "ZOLClite";

/// Generated programs per `run_sweep` call.
fn block(p: &Params) -> usize {
    p.size(20, 2)
}

/// Distinct calls (seed blocks) the measured phase cycles through; the
/// coverage and savings figures cover their programs.
fn calls(p: &Params) -> usize {
    p.size(100, 1)
}

/// First program seed of measured call `k`.
fn call_seed(p: &Params, k: usize) -> u64 {
    1 + p.seed.wrapping_mul(10_000_000) + (k * block(p)) as u64
}

/// First program seed of warm-up call `k` (disjoint from measured ones).
fn warmup_seed(p: &Params, k: usize) -> u64 {
    call_seed(p, 0) + 9_000_000 + (k * block(p)) as u64
}

fn sweep(p: &Params, first_seed: u64) -> SweepConfig {
    SweepConfig::new()
        .with_programs(block(p))
        .with_base_seed(first_seed)
}

/// ZOLClite coverage and savings over the covered calls.
#[derive(Debug, Default, Clone, PartialEq)]
struct Lite {
    hw_loops: usize,
    loops: usize,
    savings: Vec<f64>,
}

impl Lite {
    fn add_report(&mut self, r: &SweepReport) {
        if let Some(pt) = r.points.iter().find(|pt| pt.label == LITE) {
            self.hw_loops += pt.hw_loops;
            self.loops += pt.hw_loops + pt.unhandled;
            self.savings.extend(&pt.savings);
        }
    }

    fn coverage_pct(&self) -> f64 {
        100.0 * self.hw_loops as f64 / self.loops.max(1) as f64
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    if p.trace {
        return traced(p);
    }
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut warm = 0;
    let ((), setup_s) = repeated_setup(p, || {
        let cfg = sweep(p, warmup_seed(p, warm));
        warm += 1;
        attempted += cfg.cells() as u64;
        if catch_unwind(AssertUnwindSafe(|| run_sweep(&cfg))).is_err() {
            failed += cfg.cells() as u64;
        }
    });

    // Passes over the same seed blocks, so each block's latency is a
    // median over its repeats; run_sweep keeps nothing between calls, so
    // a repeat costs what the first call did.
    let mut lite = Lite::default();
    let mut latencies = vec![Vec::new(); calls(p)];
    let mut host = HostSpeed::new(1);
    let deadline = p.deadline();
    let mut pass = 0;
    while pass < 2 || Instant::now() < deadline {
        for (k, samples) in latencies.iter_mut().enumerate() {
            let cfg = sweep(p, call_seed(p, k));
            let t = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| run_sweep(&cfg)));
            samples.push(t.elapsed().as_secs_f64() * 1e3 * host.factor());
            attempted += cfg.cells() as u64;
            match result {
                Ok(report) if pass == 0 => lite.add_report(&report),
                Ok(_) => {}
                Err(e) => {
                    eprintln!("e7_sweep: call {k} failed: {}", panic_message(&*e));
                    failed += cfg.cells() as u64;
                }
            }
        }
        pass += 1;
    }

    let cells_per_s = repeated_ops_per_s(&latencies) * sweep(p, 0).cells() as f64;
    let named = vec![
        Metric::new("e7.cells_per_s", cells_per_s, "1/s"),
        Metric::new("e7.lite_coverage_pct", lite.coverage_pct(), "%"),
        Metric::new("e7.lite_saving_median_pct", median(&lite.savings), "%"),
    ];
    Outcome {
        attempted,
        failed,
        setup_s,
        ops_per_s: cells_per_s,
        latencies_ms: repeat_medians(&latencies),
        hw_loop_pct: lite.coverage_pct(),
        threads: std::thread::available_parallelism().map_or(1, usize::from),
        named,
        layers: None,
    }
}

/// The reference expectation `GeneratedProgram::from_spec` derives: a
/// functional run with no controller, registers `r1`–`r9` and the
/// 64-word data window.
fn reference(
    tr: &mut Tracer,
    c: &mut Counters,
    program: &Arc<CompiledProgram>,
) -> Result<Expectation, String> {
    let kind = ExecutorKind::Functional;
    let mut cpu = tr
        .span("sim.setup.functional", |_| {
            kind.new_session(program, CpuConfig::default())
        })
        .map_err(|e| format!("session: {e}"))?;
    let t = Instant::now();
    let stats = tr
        .span("sim.exec.functional.passive", |_| {
            cpu.run(&mut NullEngine, MAX_FUEL)
        })
        .map_err(|e| format!("reference run: {e}"))?;
    let tally = c.exec.entry(("functional", false)).or_default();
    tally.ns += t.elapsed().as_nanos() as u64;
    tally.retired += stats.retired;
    c.retired += stats.retired;
    tr.span("bench.check", |_| {
        let words = cpu
            .mem()
            .read_words(DATA_BASE, 64)
            .map_err(|e| format!("data window: {e}"))?;
        Ok(Expectation {
            mem_words: vec![(DATA_BASE, words)],
            regs: (1..=9).map(|i| (reg(i), cpu.regs().read(reg(i)))).collect(),
        })
    })
}

/// One generated program through every cell of the sweep, as spans.
/// Returns the failed cells.
fn program_cells(
    tr: &mut Tracer,
    c: &mut Counters,
    cfg: &SweepConfig,
    seed: u64,
    hooks: Hooks,
    lite: &mut Lite,
) -> Result<(), String> {
    let spec = tr.span("gen.generate", |_| ProgramSpec::generate(seed, &cfg.gen));
    let assembled = tr
        .span("gen.assemble", |_| spec.assemble())
        .map_err(|e| format!("assemble: {e}"))?;
    let program = tr.span("sim.compile", |_| {
        CompiledProgram::compile(assembled.program)
    });
    let expect = reference(tr, c, &program)?;
    let base = checked_run(
        tr,
        c,
        cfg.executor,
        &program,
        &Target::Baseline,
        &expect,
        hooks,
    )?;
    for point in &cfg.points {
        let r = tr
            .span("cfg.retarget", |_| {
                retarget(program.source(), &point.config)
            })
            .map_err(|e| format!("{}: retarget: {e}", point.label))?;
        c.retarget_outcome(r.counted.len(), r.unhandled.len());
        if r.counted.len() + r.unhandled.len() != spec.loop_count() {
            return Err(format!("{}: retargeter lost track of loops", point.label));
        }
        let full_capacity =
            point.config.loops() >= cfg.gen.max_loops && point.config.tasks() >= cfg.gen.max_loops;
        if full_capacity && r.unhandled.len() != spec.predicted_unhandled() {
            return Err(format!("{}: handledness prediction violated", point.label));
        }
        let mut expect = expect.clone();
        if r.init_instructions > 0 {
            expect.regs.retain(|(rg, _)| *rg != r.scratch);
        }
        let retargeted = tr.span("sim.compile", |_| CompiledProgram::compile(r.program));
        let target = Target::Zolc(point.config);
        let stats = checked_run(tr, c, cfg.executor, &retargeted, &target, &expect, hooks)?;
        if point.label == LITE {
            lite.hw_loops += r.counted.len();
            lite.loops += r.counted.len() + r.unhandled.len();
            let b = base.cycles as f64;
            lite.savings.push(100.0 * (b - stats.cycles as f64) / b);
        }
    }
    Ok(())
}

/// One call's programs through [`program_cells`]; returns
/// `(cells, failed cells)`.
fn call_cells(
    tr: &mut Tracer,
    c: &mut Counters,
    cfg: &SweepConfig,
    hooks: Hooks,
    lite: &mut Lite,
) -> (u64, u64) {
    let per_program = (1 + cfg.points.len()) as u64;
    let mut failed = 0;
    for i in 0..cfg.programs as u64 {
        let seed = cfg.base_seed + i;
        let r = tr.op_span("bench.program", seed, |tr| {
            program_cells(tr, c, cfg, seed, hooks, lite)
        });
        if let Err(e) = r {
            eprintln!("e7_sweep: program {seed}: {e}");
            failed += per_program;
        }
    }
    (cfg.programs as u64 * per_program, failed)
}

fn traced(p: &Params) -> Outcome {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut c = Counters::default();
    let mut warm = 0;
    let ((), setup_s) = repeated_setup(p, || {
        let cfg = sweep(p, warmup_seed(p, warm));
        warm += 1;
        let (n, f) = call_cells(
            &mut Tracer::new(false),
            &mut Counters::default(),
            &cfg,
            Hooks::Plain,
            &mut Lite::default(),
        );
        attempted += n;
        failed += f;
    });

    // The span-decomposed cells must reproduce run_sweep exactly.
    let first = sweep(p, call_seed(p, 0));
    let mut mine = Lite::default();
    let (n, f) = call_cells(
        &mut Tracer::new(false),
        &mut Counters::default(),
        &first,
        Hooks::Plain,
        &mut mine,
    );
    let mut theirs = Lite::default();
    match catch_unwind(AssertUnwindSafe(|| run_sweep(&first))) {
        Ok(report) => theirs.add_report(&report),
        Err(e) => eprintln!("e7_sweep: run_sweep failed: {}", panic_message(&*e)),
    }
    mine.savings.sort_by(f64::total_cmp);
    attempted += n;
    failed += if f == 0 && mine == theirs { 0 } else { n };

    let mut measure = Tracer::new(true);
    let mut lite = Lite::default();
    let mut split = Split::default();
    let mut latencies = Vec::new();
    let deadline = p.deadline();
    let mut k = 1;
    while k < 3 || Instant::now() < deadline {
        let cfg = sweep(p, call_seed(p, k));
        let t = Instant::now();
        let traced = k % 2 == 1;
        let (n, f) = if traced {
            call_cells(&mut measure, &mut c, &cfg, Hooks::Counted, &mut lite)
        } else {
            call_cells(
                &mut Tracer::new(false),
                &mut Counters::default(),
                &cfg,
                Hooks::Plain,
                &mut Lite::default(),
            )
        };
        split.add(traced, t.elapsed().as_nanos() as u64, n);
        latencies.push(t.elapsed().as_secs_f64() * 1e3);
        attempted += n;
        failed += f;
        k += 1;
    }

    // Hook costs, from a timed probe outside the accounted time.
    let mut probe = Counters::default();
    let cfg = sweep(p, call_seed(p, k)).with_programs(p.size(4, 1));
    let (n, f) = call_cells(
        &mut Tracer::new(false),
        &mut probe,
        &cfg,
        Hooks::Timed,
        &mut Lite::default(),
    );
    attempted += n;
    failed += f;
    c.timed_hooks = probe.timed_hooks;
    c.timed_retired = probe.timed_retired;

    Outcome {
        attempted,
        failed,
        setup_s,
        ops_per_s: 0.0,
        latencies_ms: latencies,
        hw_loop_pct: lite.coverage_pct(),
        threads: 1,
        named: Vec::new(),
        layers: Some(Layers {
            setup: Tracer::new(false),
            measure,
            wall_ns: split.traced_ns(),
            counters: c,
            trace_overhead_pct: split.overhead_pct(),
            clock_ns: crate::engine::clock_overhead_ns(),
            daemon: Default::default(),
        }),
    }
}
