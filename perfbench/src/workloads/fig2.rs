//! `fig2_kernels`: the paper's Fig. 2 cells, executed repeatedly.
//!
//! Set-up builds the `JobMatrix::fig2()` cells once — the twelve
//! kernels on XRdefault, XRhrdwil, ZOLClite and ZOLCauto (the baseline
//! binary retargeted onto ZOLClite). The measured phase then runs every
//! cell on the `nest` and cycle-accurate tiers in passes, each pass in a
//! seed-derived order, and checks every run against the kernel's
//! reference model. One run is one op.
//!
//! Traced, passes alternate between span-decomposed runs (through a
//! counting engine) and plain ones; afterwards a probe pass runs the
//! cells on the functional and compiled tiers and a timed-hook pass
//! measures the controller's share, both outside the accounted time.

use super::{repeated_setup, shuffled, Params, Split};
use crate::calib::HostSpeed;
use crate::report::{
    geo_mean, median, repeat_medians, repeated_ops_per_s, Layers, Metric, Outcome,
};
use crate::run::{checked_run, tier, Counters, Hooks};
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;
use zolc_bench::{BuildMode, JobMatrix, JobSource, MAX_FUEL};
use zolc_cfg::retarget;
use zolc_ir::{LoweredInfo, Target};
use zolc_kernels::{build_kernel_auto, AutoStats, BuiltKernel, ExecutorKind, KernelEntry};
use zolc_sim::CompiledProgram;

/// Fig. 2 columns: XRdefault, XRhrdwil, ZOLClite, ZOLCauto.
const COLUMNS: [&str; 4] = ["XRdefault", "XRhrdwil", "ZOLClite", "ZOLCauto"];

/// The tiers every cell runs on in the measured phase.
const TIERS: [ExecutorKind; 2] = [ExecutorKind::Nest, ExecutorKind::CycleAccurate];

struct Cell {
    column: usize,
    built: BuiltKernel,
    auto: Option<AutoStats>,
}

/// `build_kernel_auto`, one span per call it makes.
fn auto_spans(
    tr: &mut Tracer,
    c: &mut Counters,
    entry: &KernelEntry,
    target: &Target,
) -> Result<(BuiltKernel, AutoStats), String> {
    let Target::Zolc(config) = target else {
        return Err("ZOLCauto cell without a ZOLC target".into());
    };
    let base = tr
        .span("ir.build", |_| (entry.build)(&Target::Baseline))
        .map_err(|e| e.to_string())?;
    let r = tr
        .span("cfg.retarget", |_| retarget(base.program.source(), config))
        .map_err(|e| e.to_string())?;
    c.retarget_outcome(r.counted.len(), r.unhandled.len());
    let stats = AutoStats::from(&r);
    let program = tr.span("sim.compile", |_| CompiledProgram::compile(r.program));
    let built = BuiltKernel {
        name: base.name,
        program,
        target: target.clone(),
        expect: base.expect,
        info: LoweredInfo {
            image: Some(r.image),
            init_instructions: r.init_instructions,
            notes: r.notes,
        },
    };
    Ok((built, stats))
}

/// Builds the Fig. 2 cells; traced, as spans.
fn build_cells(tr: &mut Tracer, c: &mut Counters) -> Result<Vec<Cell>, String> {
    let mut cells = Vec::new();
    for job in JobMatrix::fig2().jobs() {
        let JobSource::Kernel(entry) = &job.source else {
            return Err("fig2 matrix holds a non-kernel cell".into());
        };
        let column = match (&job.target, job.mode) {
            (Target::Baseline, _) => 0,
            (Target::HwLoop, _) => 1,
            (Target::Zolc(_), BuildMode::Lower) => 2,
            _ => 3,
        };
        let label = format!("{}/{}", entry.name, COLUMNS[column]);
        let (built, auto) = if job.mode == BuildMode::Lower {
            let built = tr
                .span("ir.build", |_| (entry.build)(&job.target))
                .map_err(|e| format!("{label}: {e}"))?;
            (built, None)
        } else if tr.is_on() {
            let (built, stats) =
                auto_spans(tr, c, entry, &job.target).map_err(|e| format!("{label}: {e}"))?;
            (built, Some(stats))
        } else {
            let Target::Zolc(config) = job.target else {
                return Err(format!("{label}: no ZOLC target"));
            };
            let a = build_kernel_auto(entry, config).map_err(|e| format!("{label}: {e}"))?;
            (a.built, Some(a.stats))
        };
        cells.push(Cell {
            column,
            built,
            auto,
        });
    }
    Ok(cells)
}

/// Per-run latencies and retired instructions of every `(cell, tier)`
/// op, and the cycle count of every cell.
struct Tally {
    latencies_ms: Vec<Vec<f64>>,
    retired: Vec<u64>,
    cycles: BTreeMap<usize, u64>,
}

impl Tally {
    /// Geometric mean over the cells of `columns` on tier `tier_idx` of
    /// retired instructions per microsecond, at each op's median run.
    fn mips(&self, cells: &[Cell], tier_idx: usize, columns: &[usize]) -> f64 {
        let v: Vec<f64> = (0..self.retired.len())
            .filter(|k| {
                k % TIERS.len() == tier_idx && columns.contains(&cells[k / TIERS.len()].column)
            })
            .filter(|&k| self.retired[k] > 0)
            .map(|k| self.retired[k] as f64 / (median(&self.latencies_ms[k]) * 1e3))
            .collect();
        geo_mean(&v)
    }

    /// Mean ZOLClite cycle saving over XRdefault, percent (Fig. 2).
    fn zolc_saving_mean(&self, cells: &[Cell]) -> f64 {
        let mut rows: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
        for (&i, &cyc) in &self.cycles {
            rows.entry(cells[i].built.name.as_str()).or_default()[cells[i].column] = cyc;
        }
        let savings: Vec<f64> = rows
            .values()
            .filter(|r| r[0] > 0)
            .map(|r| 100.0 * (r[0] as f64 - r[2] as f64) / r[0] as f64)
            .collect();
        savings.iter().sum::<f64>() / savings.len().max(1) as f64
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut c = Counters::default();
    let ((built, setup_tr), setup_s) = repeated_setup(p, || {
        let mut tr = Tracer::new(p.trace);
        let mut counters = Counters::default();
        let cells = build_cells(&mut tr, &mut counters);
        (cells.map(|cells| (cells, counters)), tr)
    });
    let cells = match built {
        Ok((cells, counters)) => {
            c.loops_attempted = counters.loops_attempted;
            c.hw_loops = counters.hw_loops;
            c.refusals = counters.refusals;
            cells
        }
        Err(e) => {
            eprintln!("fig2_kernels: set-up failed: {e}");
            Vec::new()
        }
    };
    attempted += JobMatrix::fig2().len() as u64;
    failed += (JobMatrix::fig2().len() - cells.len()) as u64;
    let cells: Vec<Cell> = cells.into_iter().take(p.size(usize::MAX, 8)).collect();

    let (hw, loops) = cells
        .iter()
        .filter_map(|c| c.auto.as_ref())
        .fold((0, 0), |(h, l), a| {
            (h + a.hw_loops, l + a.hw_loops + a.unhandled)
        });
    let hw_loop_pct = 100.0 * hw as f64 / loops.max(1) as f64;

    let mut measure = Tracer::new(p.trace);
    let runs = cells.len() * TIERS.len();
    let mut tally = Tally {
        latencies_ms: vec![Vec::new(); runs],
        retired: vec![0; runs],
        cycles: BTreeMap::new(),
    };
    let mut split = Split::default();
    let mut host = HostSpeed::new(4);
    let deadline = p.deadline();
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < deadline {
        let traced_pass = p.trace && pass.is_multiple_of(2);
        for k in shuffled(runs, p.seed.wrapping_add(pass)) {
            let (i, t) = (k / TIERS.len(), k % TIERS.len());
            let (cell, kind) = (&cells[i], TIERS[t]);
            let start = Instant::now();
            let result = if traced_pass {
                measure.op_span("bench.run", k as u64, |tr| {
                    checked_run(
                        tr,
                        &mut c,
                        kind,
                        &cell.built.program,
                        &cell.built.target,
                        &cell.built.expect,
                        Hooks::Counted,
                    )
                })
            } else {
                match cell.built.run(MAX_FUEL, kind) {
                    Ok(run) if run.is_correct() => Ok(run.stats),
                    Ok(run) => Err(format!("{:?} {:?}", run.mismatches, run.violations)),
                    Err(e) => Err(e.to_string()),
                }
            };
            let ns = start.elapsed().as_nanos() as u64;
            split.add(traced_pass, ns, 1);
            attempted += 1;
            match result {
                Ok(stats) => {
                    tally.retired[k] = stats.retired;
                    if kind == ExecutorKind::CycleAccurate {
                        tally.cycles.insert(i, stats.cycles);
                    }
                }
                Err(e) => {
                    eprintln!(
                        "fig2_kernels: {}/{} on {}: {e}",
                        cell.built.name,
                        COLUMNS[cell.column],
                        tier(kind)
                    );
                    failed += 1;
                }
            }
            tally.latencies_ms[k].push(ns as f64 / 1e6 * host.factor());
        }
        pass += 1;
    }

    let layers = p.trace.then(|| {
        // Functional and compiled tiers, and timed hooks: probes outside
        // the accounted time.
        let mut probe = Counters::default();
        let mut timed = Counters::default();
        let mut off = Tracer::new(false);
        for cell in &cells {
            let b = &cell.built;
            for kind in [ExecutorKind::Functional, ExecutorKind::Compiled] {
                attempted += 1;
                if checked_run(
                    &mut off,
                    &mut probe,
                    kind,
                    &b.program,
                    &b.target,
                    &b.expect,
                    Hooks::Counted,
                )
                .is_err()
                {
                    failed += 1;
                }
            }
            if cell.column >= 2 {
                attempted += 1;
                if checked_run(
                    &mut off,
                    &mut timed,
                    ExecutorKind::Nest,
                    &b.program,
                    &b.target,
                    &b.expect,
                    Hooks::Timed,
                )
                .is_err()
                {
                    failed += 1;
                }
            }
        }
        for (key, t) in probe.exec {
            c.exec.entry(key).or_insert(t);
        }
        c.timed_hooks = timed.timed_hooks;
        c.timed_retired = timed.timed_retired;
        Layers {
            setup: setup_tr,
            measure,
            wall_ns: split.traced_ns(),
            counters: c,
            trace_overhead_pct: split.overhead_pct(),
            clock_ns: crate::engine::clock_overhead_ns(),
            daemon: Default::default(),
        }
    });

    let named = vec![
        Metric::new(
            "kernels.active_mips",
            tally.mips(&cells, 0, &[2, 3]),
            "Minstr/s",
        ),
        Metric::new(
            "kernels.passive_mips",
            tally.mips(&cells, 0, &[0, 1]),
            "Minstr/s",
        ),
        Metric::new(
            "kernels.pipeline_mips",
            tally.mips(&cells, 1, &[0, 1, 2, 3]),
            "Minstr/s",
        ),
        Metric::new(
            "fig2.zolc_saving_mean_pct",
            tally.zolc_saving_mean(&cells),
            "%",
        ),
    ];
    Outcome {
        attempted,
        failed,
        setup_s,
        ops_per_s: repeated_ops_per_s(&tally.latencies_ms),
        latencies_ms: repeat_medians(&tally.latencies_ms),
        hw_loop_pct,
        threads: 1,
        named,
        layers,
    }
}
