//! The automatic retargeting path: benchmark kernels built from their
//! *baseline binaries* rather than from IR.
//!
//! The hand path lowers a kernel's IR directly for [`Target::Zolc`]; the
//! auto path lowers it for [`Target::Baseline`] and hands the resulting
//! *binary* to [`zolc_cfg::retarget`], which excises the software loop
//! control and synthesizes the controller overlay with no IR knowledge
//! at all — the paper's §2 claim that ZOLC task-to-task data "can be
//! generated automatically from an existing program".
//!
//! The result is an ordinary [`BuiltKernel`], so the whole measurement
//! stack ([`BuiltKernel::run`], the bench `JobMatrix`) runs it
//! unchanged; correctness is still judged against the same bit-exact
//! reference expectation the hand-lowered builds use.

use crate::common::{BuildError, BuiltKernel};
use crate::KernelEntry;
use std::sync::Arc;
use zolc_cfg::{RetargetPlan, Retargeted};
use zolc_core::ZolcConfig;
use zolc_ir::{LoweredInfo, Target};
use zolc_sim::CompiledProgram;

/// Summary statistics of one retargeting run (also carried by the bench
/// matrix's `ZOLCauto` measurements).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AutoStats {
    /// Natural loops the retargeter left in software.
    pub unhandled: usize,
    /// Loop-control instructions excised from the baseline text.
    pub excised: usize,
    /// Hardware loops in the synthesized overlay.
    pub hw_loops: usize,
    /// Body-start byte addresses (in the *original* program) of the
    /// hardware-mapped loops, in overlay order — lets sweep drivers
    /// attribute per-loop retargeting outcomes back to known loop
    /// positions (e.g. `zolc_gen`'s `Assembled::loop_starts`).
    pub hw_loop_starts: Vec<u32>,
}

impl From<&Retargeted> for AutoStats {
    /// The single derivation of retarget statistics, used by
    /// [`AutoKernel::retarget`] and by callers that retarget by hand.
    fn from(r: &Retargeted) -> AutoStats {
        AutoStats {
            unhandled: r.unhandled.len(),
            excised: r.excised,
            hw_loops: r.counted.len(),
            hw_loop_starts: r.counted.iter().map(|c| c.start).collect(),
        }
    }
}

/// A kernel built through the automatic retargeting pipeline.
#[derive(Debug, Clone)]
pub struct AutoKernel {
    /// The runnable retargeted kernel (target [`Target::Zolc`]), checked
    /// against the same reference expectation as any hand-lowered build.
    pub built: BuiltKernel,
    /// What the retargeter did to get there.
    pub stats: AutoStats,
}

impl AutoKernel {
    /// Auto-retargets the baseline build `base` onto a ZOLC of
    /// configuration `config`: analyses the binary, then
    /// [`AutoKernel::instantiate`]s the analysis. The one step shared by
    /// every auto path (registry kernels, generated programs, `zolc-lang`
    /// units).
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Retarget`] if the retargeter rejects the
    /// binary.
    pub fn retarget(base: BuiltKernel, config: ZolcConfig) -> Result<AutoKernel, BuildError> {
        let plan = RetargetPlan::analyze(Arc::clone(base.program.source()))?;
        AutoKernel::instantiate(&plan, base, config)
    }

    /// Builds the auto-retargeted kernel for `config` from `plan`, the
    /// retarget analysis of `base`'s binary — callers that retarget one
    /// binary onto several configurations analyse it once and
    /// instantiate it per configuration.
    ///
    /// The prepended init sequence clobbers the retargeter's scratch
    /// register (chosen untouched by surviving code) — the one permitted
    /// register difference besides the freed counters — so it is dropped
    /// from the expectation whenever an init sequence is emitted.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Retarget`] if the plan cannot be
    /// instantiated on `config`.
    ///
    /// # Panics
    ///
    /// Panics if `plan` was analysed from a binary other than `base`'s.
    pub fn instantiate(
        plan: &RetargetPlan,
        base: BuiltKernel,
        config: ZolcConfig,
    ) -> Result<AutoKernel, BuildError> {
        let source = base.program.source();
        assert!(
            Arc::ptr_eq(plan.program(), source) || plan.program() == source,
            "{}: retarget plan was analysed from another binary",
            base.name
        );
        let r = plan.instantiate(&config)?;
        let stats = AutoStats::from(&r);
        let Retargeted {
            program,
            image,
            init_instructions,
            notes,
            scratch,
            ..
        } = r;
        let mut expect = base.expect;
        if init_instructions > 0 {
            expect.regs.retain(|(reg, _)| *reg != scratch);
        }
        Ok(AutoKernel {
            built: BuiltKernel {
                name: base.name,
                program: CompiledProgram::compile(program),
                target: Target::Zolc(config),
                expect,
                info: LoweredInfo {
                    image: Some(image),
                    init_instructions,
                    notes,
                },
            },
            stats,
        })
    }
}

/// Builds `entry` for [`Target::Baseline`] and auto-retargets the binary
/// onto a ZOLC of configuration `config` ([`AutoKernel::retarget`]).
///
/// # Errors
///
/// Returns [`BuildError::Lower`]/[`BuildError::Asm`] if the baseline
/// build fails and [`BuildError::Retarget`] if the retargeter rejects
/// the binary.
pub fn build_kernel_auto(
    entry: &KernelEntry,
    config: ZolcConfig,
) -> Result<AutoKernel, BuildError> {
    AutoKernel::retarget((entry.build)(&Target::Baseline)?, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{find_kernel, Expectation};
    use zolc_cfg::retarget;
    use zolc_isa::{assemble, reg, DATA_BASE};
    use zolc_sim::ExecutorKind;

    #[test]
    fn auto_vec_mac_is_correct_on_both_executors() {
        let entry = find_kernel("vec_mac").unwrap();
        let auto = build_kernel_auto(&entry, ZolcConfig::lite()).unwrap();
        assert_eq!(auto.stats.unhandled, 0);
        assert!(auto.stats.excised > 0);
        for kind in [ExecutorKind::CycleAccurate, ExecutorKind::Functional] {
            let run = auto.built.run(10_000_000, kind).unwrap();
            assert!(run.is_correct(), "{kind}: {:?}", run.mismatches);
        }
    }

    #[test]
    fn auto_built_kernel_matches_reference() {
        let entry = find_kernel("fir").unwrap();
        let run = build_kernel_auto(&entry, ZolcConfig::lite())
            .unwrap()
            .built
            .run(10_000_000, ExecutorKind::CycleAccurate)
            .unwrap();
        assert!(
            run.is_correct(),
            "{:?} {:?}",
            run.mismatches,
            run.violations
        );
        assert!(run.stats.cycles > 0);
    }

    #[test]
    fn retarget_drops_only_the_scratch_register_from_the_expectation() {
        let program = assemble(
            "
            .data
      out:  .space 4
            .text
            li   r11, 5
      top:  addi r2, r2, 3
            addi r11, r11, -1
            bne  r11, r0, top
            la   r3, out
            sw   r2, 0(r3)
            halt
        ",
        )
        .unwrap();
        let config = ZolcConfig::lite();
        let probe = retarget(&program, &config).unwrap();
        assert!(probe.init_instructions > 0);
        let scratch = probe.scratch;
        let kept = vec![(reg(2), 15), (reg(3), DATA_BASE)];
        assert!(kept.iter().all(|(r, _)| *r != scratch));
        let mem_words = vec![(DATA_BASE, vec![15])];
        let mut regs = kept.clone();
        regs.push((scratch, 0));
        let base = BuiltKernel {
            name: "acc".into(),
            program: CompiledProgram::compile(program),
            target: Target::Baseline,
            expect: Expectation {
                mem_words: mem_words.clone(),
                regs,
            },
            info: LoweredInfo::default(),
        };
        let auto = AutoKernel::retarget(base, config).unwrap();
        assert_eq!(auto.built.name, "acc");
        assert_eq!(auto.built.target, Target::Zolc(config));
        assert_eq!(auto.built.expect.regs, kept);
        assert_eq!(auto.built.expect.mem_words, mem_words);
        for kind in [ExecutorKind::CycleAccurate, ExecutorKind::Nest] {
            let run = auto.built.run(1_000_000, kind).unwrap();
            assert!(run.is_correct(), "{kind}: {:?}", run.mismatches);
        }
    }

    #[test]
    #[should_panic(expected = "fir: retarget plan was analysed from another binary")]
    fn instantiate_rejects_a_plan_of_another_binary() {
        let base = |name| (find_kernel(name).unwrap().build)(&Target::Baseline).unwrap();
        let other = base("vec_mac");
        let plan = RetargetPlan::analyze(Arc::clone(other.program.source())).unwrap();
        let _ = AutoKernel::instantiate(&plan, base("fir"), ZolcConfig::lite());
    }
}
