//! `corpus_zolcc`: the 25 `zolc_lang::corpus()` programs through the
//! `zolcc --target auto` flow, one thread.
//!
//! One op is one program: `compile` → `build_auto(ZOLClite)` → a `nest`
//! run → the interpreter-derived expectation check, plus the corpus's
//! pinned hardware-loop count. The measured phase makes passes over the
//! corpus, each in a seed-derived order; set-up is one such pass, so a
//! one-time cost moved out of the op shows there. Traced, passes
//! alternate between span-decomposed and plain ones.

use super::{repeated_setup, shuffled, Params, Split};
use crate::calib::HostSpeed;
use crate::report::{latency_metrics, repeat_medians, repeated_ops_per_s, Layers, Metric, Outcome};
use crate::run::{checked_run, Counters, Hooks};
use crate::trace::Tracer;
use std::time::Instant;
use zolc_bench::MAX_FUEL;
use zolc_cfg::retarget;
use zolc_core::ZolcConfig;
use zolc_ir::Target;
use zolc_kernels::ExecutorKind;
use zolc_lang::{compile, corpus, CorpusEntry};
use zolc_sim::CompiledProgram;

/// `(hardware loops, software loops)` of one program through the flow.
type Loops = (usize, usize);

/// The flow as `zolcc --target auto` runs it.
fn plain(e: &CorpusEntry) -> Result<Loops, String> {
    let unit = compile(e.name, e.source).map_err(|d| d.to_string())?;
    let auto = unit
        .build_auto(ZolcConfig::lite())
        .map_err(|e| e.to_string())?;
    let run = auto
        .built
        .run(MAX_FUEL, ExecutorKind::Nest)
        .map_err(|e| e.to_string())?;
    if !run.is_correct() {
        return Err(format!("{:?} {:?}", run.mismatches, run.violations));
    }
    Ok((auto.stats.hw_loops, auto.stats.unhandled))
}

/// The same flow, one span per call (`build_auto` split into the
/// baseline build, `retarget` and the compile of the result).
fn spans(
    tr: &mut Tracer,
    c: &mut Counters,
    e: &CorpusEntry,
    hooks: Hooks,
) -> Result<Loops, String> {
    let unit = tr
        .span("lang.compile", |_| compile(e.name, e.source))
        .map_err(|d| d.to_string())?;
    let base = tr
        .span("ir.build", |_| unit.build(&Target::Baseline))
        .map_err(|e| e.to_string())?;
    let config = ZolcConfig::lite();
    let r = tr
        .span("cfg.retarget", |_| retarget(base.program.source(), &config))
        .map_err(|e| e.to_string())?;
    c.retarget_outcome(r.counted.len(), r.unhandled.len());
    let loops = (r.counted.len(), r.unhandled.len());
    let program = tr.span("sim.compile", |_| CompiledProgram::compile(r.program));
    checked_run(
        tr,
        c,
        ExecutorKind::Nest,
        &program,
        &Target::Zolc(config),
        &base.expect,
        hooks,
    )?;
    Ok(loops)
}

fn check_pinned(e: &CorpusEntry, r: Result<Loops, String>) -> Result<Loops, String> {
    match r {
        Ok((hw, _)) if hw != e.handled_loops => Err(format!(
            "{hw} hardware loops, corpus pins {}",
            e.handled_loops
        )),
        other => other,
    }
}

/// Runs the workload.
pub fn run(p: &Params) -> Outcome {
    let programs: Vec<&CorpusEntry> = corpus().iter().take(p.size(usize::MAX, 3)).collect();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut loops = (0, 0);
    let ((), setup_s) = repeated_setup(p, || {
        loops = (0, 0);
        for e in &programs {
            attempted += 1;
            match check_pinned(e, plain(e)) {
                Ok((hw, sw)) => loops = (loops.0 + hw, loops.1 + sw),
                Err(err) => {
                    eprintln!("corpus_zolcc: {}: {err}", e.name);
                    failed += 1;
                }
            }
        }
    });

    let mut c = Counters::default();
    let mut measure = Tracer::new(p.trace);
    let mut latencies = vec![Vec::new(); programs.len()];
    let mut split = Split::default();
    let mut host = HostSpeed::new(4);
    let deadline = p.deadline();
    let mut pass = 0u64;
    while pass < 2 || Instant::now() < deadline {
        let traced_pass = p.trace && pass.is_multiple_of(2);
        for i in shuffled(programs.len(), p.seed.wrapping_add(pass)) {
            let e = programs[i];
            let t = Instant::now();
            let r = if traced_pass {
                measure.op_span("bench.program", i as u64, |tr| {
                    spans(tr, &mut c, e, Hooks::Counted)
                })
            } else {
                plain(e)
            };
            let ns = t.elapsed().as_nanos() as u64;
            split.add(traced_pass, ns, 1);
            latencies[i].push(ns as f64 / 1e6 * host.factor());
            attempted += 1;
            if let Err(err) = check_pinned(e, r) {
                eprintln!("corpus_zolcc: {}: {err}", e.name);
                failed += 1;
            }
        }
        pass += 1;
    }

    let programs_per_s = repeated_ops_per_s(&latencies);
    let latencies = repeat_medians(&latencies);
    let mut named = vec![Metric::new("corpus.programs_per_s", programs_per_s, "1/s")];
    named.extend(
        latency_metrics("corpus.program", &latencies)
            .into_iter()
            .skip(1),
    );
    if p.trace {
        // Hook costs, from a timed probe outside the accounted time.
        let mut probe = Counters::default();
        for e in &programs {
            attempted += 1;
            if spans(&mut Tracer::new(false), &mut probe, e, Hooks::Timed).is_err() {
                failed += 1;
            }
        }
        c.timed_hooks = probe.timed_hooks;
        c.timed_retired = probe.timed_retired;
    }
    Outcome {
        attempted,
        failed,
        setup_s,
        ops_per_s: programs_per_s,
        latencies_ms: latencies,
        hw_loop_pct: 100.0 * loops.0 as f64 / (loops.0 + loops.1).max(1) as f64,
        threads: 1,
        named,
        layers: p.trace.then(|| Layers {
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
