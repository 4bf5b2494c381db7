//! The counting wrapper must be invisible to the run it observes.

use std::sync::Arc;
use zolc_core::{Zolc, ZolcConfig};
use zolc_ir::Target;
use zolc_perfbench::engine::CountingEngine;
use zolc_sim::{CompiledProgram, CpuConfig, Executor, ExecutorKind, LoopEngine, NullEngine, Stats};

const FUEL: u64 = 10_000_000;

/// Final state of one run: stats, registers, memory and violations.
type Final = (Stats, [u32; 32], Vec<u8>, Vec<String>);

fn finish(cpu: &dyn Executor, stats: Stats, violations: Vec<String>) -> Final {
    let mem = cpu.mem().read_bytes(0, cpu.mem().size()).unwrap().to_vec();
    (stats, cpu.regs().snapshot(), mem, violations)
}

fn run(prog: &Arc<CompiledProgram>, target: &Target, kind: ExecutorKind, wrap: bool) -> Final {
    let mut cpu = kind.new_session(prog, CpuConfig::default()).unwrap();
    let mut zolc = match target {
        Target::Zolc(cfg) => Some(Zolc::new(*cfg)),
        _ => None,
    };
    let mut null = NullEngine;
    let engine: &mut dyn LoopEngine = match zolc.as_mut() {
        Some(z) => z,
        None => &mut null,
    };
    let stats = if wrap {
        let mut counting = CountingEngine::new(engine, true);
        let stats = cpu.run(&mut counting, FUEL).unwrap();
        assert!(counting.counts.calls() > 0 || kind != ExecutorKind::CycleAccurate);
        stats
    } else {
        cpu.run(engine, FUEL).unwrap()
    };
    let violations = zolc.map_or_else(Vec::new, |z| z.violations().to_vec());
    finish(&*cpu, stats, violations)
}

fn assert_invisible(name: &str, prog: &Arc<CompiledProgram>, target: &Target) {
    for kind in ExecutorKind::ALL {
        let plain = run(prog, target, kind, false);
        let wrapped = run(prog, target, kind, true);
        assert_eq!(plain.0, wrapped.0, "{name} on {kind}: stats differ");
        assert_eq!(plain.1, wrapped.1, "{name} on {kind}: registers differ");
        assert!(plain.2 == wrapped.2, "{name} on {kind}: memory differs");
        assert_eq!(plain.3, wrapped.3, "{name} on {kind}: violations differ");
        assert!(plain.0.retired > 0);
    }
}

#[test]
fn wrapped_zolc_kernel_matches_unwrapped() {
    let entry = zolc_kernels::find_kernel("fir").unwrap();
    for target in [
        Target::Zolc(ZolcConfig::lite()),
        Target::Baseline,
        Target::HwLoop,
    ] {
        let built = (entry.build)(&target).unwrap();
        assert_invisible("fir", &built.program, &target);
    }
}

#[test]
fn wrapped_generated_program_matches_unwrapped() {
    let spec = zolc_gen::ProgramSpec::generate(42, &zolc_gen::GenConfig::default());
    let base = spec.assemble().unwrap().program;
    let config = ZolcConfig::lite();
    let r = zolc_cfg::retarget(&base, &config).unwrap();
    assert!(
        !r.counted.is_empty(),
        "seed 42 should map a loop onto hardware"
    );
    let prog = CompiledProgram::compile(r.program);
    assert_invisible("gen42", &prog, &Target::Zolc(config));
    assert_invisible(
        "gen42 baseline",
        &CompiledProgram::compile(base),
        &Target::Baseline,
    );
}

#[test]
fn wrapper_forwards_passivity_and_counts_hooks() {
    let mut null = NullEngine;
    assert!(CountingEngine::new(&mut null, false).is_passive());
    let mut zolc = Zolc::new(ZolcConfig::lite());
    let mut e = CountingEngine::new(&mut zolc, false);
    assert!(!e.is_passive());
    e.on_fetch(0x100);
    e.on_flush();
    assert_eq!(
        (e.counts.fetch, e.counts.flushes, e.counts.hook_ns),
        (1, 1, 0)
    );
}
