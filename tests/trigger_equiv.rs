//! Filtered ≡ unfiltered: consulting the loop controller only at its
//! trigger pcs must be invisible.
//!
//! Every executor skips `on_fetch`/`on_execute` outside the engine's
//! trigger set, and the nest tier runs superblocks between trigger pcs.
//! Here each run is repeated through [`Unfiltered`], a wrapper that
//! forwards every hook but publishes no trigger set, so the executors
//! call every hook at every instruction. Both runs must end with equal
//! `Stats` (pipeline cycles included), registers, memory and controller
//! violations, on all four tiers, for the Fig. 2 kernels and ablation
//! extras (hand-lowered and auto-retargeted), the `zolc-lang` corpus,
//! the E7 seeds 1..=200 on every standard sweep point, and a program
//! that keeps moving a loop's addresses while the controller runs.

use std::sync::Arc;
use zolc::bench::{GeneratedProgram, SweepConfig};
use zolc::core::{Zolc, ZolcConfig};
use zolc::gen::ProgramSpec;
use zolc::ir::Target;
use zolc::isa::{reg, ZolcCtl, ZolcRegion};
use zolc::kernels::{build_kernel_auto, extra_kernels, kernels};
use zolc::sim::{
    CompiledProgram, CpuConfig, ExecEvent, ExecutorKind, FetchDecision, LoopEngine, Memory,
    RunError, Stats,
};

const FUEL: u64 = 50_000_000;

/// Forwards every hook to the wrapped engine but publishes no trigger
/// set, so executors consult it at every instruction.
struct Unfiltered<'a>(&'a mut dyn LoopEngine);

impl LoopEngine for Unfiltered<'_> {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.0.on_fetch(pc)
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        self.0.on_execute(pc, event);
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.0.exec_zwr(region, index, field, value);
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.0.exec_zctl(op);
    }

    fn on_flush(&mut self) {
        self.0.on_flush();
    }

    fn is_passive(&self) -> bool {
        self.0.is_passive()
    }
}

/// Everything one run leaves behind.
struct Final {
    outcome: Result<Stats, RunError>,
    regs: [u32; 32],
    mem: Memory,
    violations: Vec<String>,
}

fn run(prog: &Arc<CompiledProgram>, config: ZolcConfig, kind: ExecutorKind, wrap: bool) -> Final {
    let mut cpu = kind.new_session(prog, CpuConfig::default()).unwrap();
    let mut zolc = Zolc::new(config);
    let outcome = if wrap {
        cpu.run(&mut Unfiltered(&mut zolc), FUEL)
    } else {
        cpu.run(&mut zolc, FUEL)
    };
    Final {
        outcome,
        regs: cpu.regs().snapshot(),
        mem: cpu.mem().clone(),
        violations: zolc.violations().to_vec(),
    }
}

/// Runs `prog` under a ZOLC of `config` on every tier, filtered and
/// unfiltered, and requires identical results. Returns the filtered
/// outcome of the last tier.
fn assert_filter_invisible(
    name: &str,
    prog: &Arc<CompiledProgram>,
    config: ZolcConfig,
) -> Result<Stats, RunError> {
    let mut last = Err(RunError::OutOfFuel { fuel: 0 });
    for kind in ExecutorKind::ALL {
        let filtered = run(prog, config, kind, false);
        let unfiltered = run(prog, config, kind, true);
        assert_eq!(
            filtered.outcome, unfiltered.outcome,
            "{name} on {kind}: outcome or stats differ"
        );
        assert_eq!(
            filtered.regs, unfiltered.regs,
            "{name} on {kind}: registers differ"
        );
        assert!(
            filtered.mem == unfiltered.mem,
            "{name} on {kind}: memory differs"
        );
        assert_eq!(
            filtered.violations, unfiltered.violations,
            "{name} on {kind}: violations differ"
        );
        last = filtered.outcome;
    }
    last
}

#[test]
fn fig2_kernels_and_extras_are_filter_invariant() {
    let lite = ZolcConfig::lite();
    for k in kernels().iter().chain(extra_kernels()) {
        let hand = (k.build)(&Target::Zolc(lite)).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let s = assert_filter_invisible(&format!("{}/ZOLClite", k.name), &hand.program, lite);
        assert!(s.is_ok(), "{}/ZOLClite: {s:?}", k.name);
        let auto = build_kernel_auto(k, lite).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let s = assert_filter_invisible(&format!("{}/ZOLCauto", k.name), &auto.built.program, lite);
        assert!(s.is_ok(), "{}/ZOLCauto: {s:?}", k.name);
    }
    // ZOLCfull gives the extras their multiple-entry and -exit records.
    let full = ZolcConfig::full();
    for k in extra_kernels() {
        let built = (k.build)(&Target::Zolc(full)).unwrap_or_else(|e| panic!("{}: {e}", k.name));
        let s = assert_filter_invisible(&format!("{}/ZOLCfull", k.name), &built.program, full);
        assert!(s.is_ok(), "{}/ZOLCfull: {s:?}", k.name);
    }
}

#[test]
fn corpus_is_filter_invariant() {
    let lite = ZolcConfig::lite();
    for entry in zolc::lang::corpus() {
        let unit = zolc::lang::compile(entry.name, entry.source).expect("corpus compiles");
        let hand = unit.build(&Target::Zolc(lite)).expect("ZOLClite build");
        let s = assert_filter_invisible(&format!("{}/ZOLClite", entry.name), &hand.program, lite);
        assert!(s.is_ok(), "{}/ZOLClite: {s:?}", entry.name);
        let auto = unit.build_auto(lite).expect("auto build");
        let s = assert_filter_invisible(
            &format!("{}/ZOLCauto", entry.name),
            &auto.built.program,
            lite,
        );
        assert!(s.is_ok(), "{}/ZOLCauto: {s:?}", entry.name);
    }
}

#[test]
fn e7_seeds_are_filter_invariant() {
    let sweep = SweepConfig::new();
    for seed in 1..=200u64 {
        let name = format!("e7 seed {seed}");
        let generated =
            GeneratedProgram::from_spec(name.clone(), ProgramSpec::generate(seed, &sweep.gen));
        for point in &sweep.points {
            let Ok(auto) = generated.build_auto(point.config) else {
                continue;
            };
            let ctx = format!("{name} on {}", point.label);
            let s = assert_filter_invisible(&ctx, &auto.built.program, point.config);
            assert!(s.is_ok(), "{ctx}: {s:?}");
        }
    }
}

/// A hand-assembled ZOLClite program whose software outer loop, every
/// round and with the controller on, moves hardware loop 0 between two
/// copies of its body and moves loop 1's start and end: each round
/// presents a new trigger set, more of them than the program keeps
/// tables for, and no `zctl` separates the moving `zwr`s from the loop
/// they set up.
const MOVING_LOOP: &str = "
        li   r21, 1
        li   r22, 4
        li   r23, 5
        li   r26, 31
        zwr  loop, 0, 1, r21
        zwr  loop, 0, 2, r22
        zwr  loop, 0, 4, r23
        zwr  task, 0, 2, r0
        zwr  task, 0, 3, r26
        zwr  task, 0, 4, r21
        li   r10, 12
outer:  zctl.on 0
        andi r13, r10, 1
        beq  r13, r0, pickb
        la   r24, bodya
        la   r25, benda
        j    setl
pickb:  la   r24, bodyb
        la   r25, bendb
setl:   zwr  loop, 0, 5, r24
        zwr  loop, 0, 6, r25
        zwr  task, 0, 0, r25
        sll  r11, r10, 2
        la   r12, outer
        add  r12, r12, r11
        zwr  loop, 1, 5, r12
        zwr  loop, 1, 6, r12
        nop
        nop
        nop
        beq  r13, r0, gob
        j    ea
gob:    j    eb
ea:     nop
bodya:  add  r6, r6, r5
        addi r7, r7, 1
benda:  add  r8, r8, r7
        j    next
eb:     nop
bodyb:  add  r6, r6, r5
        addi r7, r7, 1
bendb:  add  r8, r8, r7
next:   addi r10, r10, -1
        bne  r10, r0, outer
        halt
";

#[test]
fn moving_loop_addresses_stay_exact_and_bounded() {
    let program = zolc::isa::assemble(MOVING_LOOP).expect("assembles");
    let prog = CompiledProgram::compile(program);
    let lite = ZolcConfig::lite();
    let stats = assert_filter_invisible("moving loop", &prog, lite).expect("halts");
    assert!(stats.zolc_redirects > 0, "the controller ran loop 0");
    let tables = prog.trigger_cache_stats().tables;
    assert_eq!(
        tables,
        CompiledProgram::TRIGGER_TABLES,
        "the cap was reached"
    );
    // Past the cap the sessions fell back to calling every hook, and
    // the results above are still exact. Check them against the model:
    // 12 rounds of 4 iterations, index 0..=3 in r5.
    let mut cpu = ExecutorKind::Nest
        .new_session(&prog, CpuConfig::default())
        .unwrap();
    let mut zolc = Zolc::new(lite);
    cpu.run(&mut zolc, FUEL).expect("halts");
    zolc.assert_consistent();
    assert_eq!(cpu.regs().read(reg(6)), 12 * (1 + 2 + 3));
    assert_eq!(cpu.regs().read(reg(7)), 48);
    assert_eq!(cpu.regs().read(reg(8)), (1..=48).sum::<u32>());
    assert!(prog.trigger_cache_stats().tables <= CompiledProgram::TRIGGER_TABLES);
}

/// A ZOLCfull program whose registered exit branch is a `j`: the exit
/// retargets the architectural task, but no flush follows a `j`, so the
/// speculative copy catches up only at the next flushing transfer — here
/// a taken `beq` inside a superblock. Unless the nest tier issues that
/// flush when it leaves the superblock, the task end fetched next
/// iterates on stale speculative state.
const EXIT_ON_A_JUMP: &str = "
        li   r21, 1
        li   r22, 3
        la   r24, body
        la   r25, bend
        la   r27, jx
        li   r26, 31
        zwr  loop, 0, 2, r22
        zwr  loop, 0, 5, r24
        zwr  loop, 0, 6, r25
        zwr  task, 0, 0, r25
        zwr  task, 0, 2, r0
        zwr  task, 0, 3, r26
        zwr  task, 0, 4, r21
        zwr  exit, 0, 0, r27
        zwr  exit, 0, 1, r26
        zwr  exit, 0, 2, r21
        zwr  exit, 0, 4, r21
        zctl.on 0
        nop
        nop
        nop
body:   addi r7, r7, 1
jx:     j    out
bend:   addi r8, r8, 1
        halt
out:    addi r9, r9, 1
        beq  r0, r0, back
        nop
back:   j    bend
";

#[test]
fn superblock_flushes_stand_for_the_step_core_flushes() {
    let program = zolc::isa::assemble(EXIT_ON_A_JUMP).expect("assembles");
    let prog = CompiledProgram::compile(program);
    let full = ZolcConfig::full();
    assert_filter_invisible("exit on a jump", &prog, full).expect("halts");
    let mut cpu = ExecutorKind::Nest
        .new_session(&prog, CpuConfig::default())
        .unwrap();
    let mut zolc = Zolc::new(full);
    cpu.run(&mut zolc, FUEL).expect("halts");
    zolc.assert_consistent();
    let regs = cpu.regs();
    assert_eq!([7, 8, 9].map(|r| regs.read(reg(r))), [1, 1, 1]);
}

/// An active `nest` run of a ZOLClite Fig. 2 kernel runs its loop
/// bodies on trigger-table superblocks, not on the step core.
#[test]
fn active_nest_run_compiles_trigger_superblocks() {
    let lite = ZolcConfig::lite();
    let entry = zolc::kernels::find_kernel("fir").expect("fir kernel");
    let built = (entry.build)(&Target::Zolc(lite)).expect("builds");
    assert_eq!(built.program.trigger_cache_stats().tables, 0);
    let run = built.run(FUEL, ExecutorKind::Nest).expect("runs");
    assert!(run.is_correct(), "{:?}", run.mismatches);
    let stats = built.program.trigger_cache_stats();
    assert_eq!(stats.tables, 1, "one trigger set once the controller is on");
    assert!(stats.superblocks > 0, "active runs dispatch superblocks");
}
