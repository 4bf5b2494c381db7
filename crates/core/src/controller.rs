//! The [`Zolc`] controller: the paper's hardware unit as a [`LoopEngine`].
//!
//! # Speculation model
//!
//! The pipeline fetches speculatively (predict-not-taken), so fetch-time
//! decisions may be made for instructions that are later squashed. The
//! controller therefore keeps two copies of its dynamic state:
//!
//! * **speculative** — advanced by [`LoopEngine::on_fetch`]; drives the
//!   zero-overhead redirects;
//! * **architectural** — advanced by [`LoopEngine::on_execute`] when the
//!   same instruction retires (EX, no longer squashable).
//!
//! On any pipeline flush, speculative state is restored from architectural
//! state. Because [`crate::decide`] is deterministic, replaying it at
//! retire must produce exactly the decision made at fetch; the controller
//! keeps a FIFO *journal* of non-trivial fetch decisions and verifies each
//! against its replay, recording mismatches as **violations** (these catch
//! mis-scheduled in-loop `zwr` limit updates, which must precede the
//! affected task end by at least 3 instructions so the write retires
//! before the end address is fetched).
//!
//! # Executor independence
//!
//! The hooks are defined purely in terms of the [`LoopEngine`] trait, so
//! the controller runs unchanged on either simulator executor:
//!
//! * the **cycle-accurate pipeline** drives it speculatively — several
//!   fetches can separate an instruction's `on_fetch` from its
//!   `on_execute`, and wrong-path fetches are rolled back via `on_flush`;
//! * the **functional executor** drives it with strict per-instruction
//!   alternation (`on_fetch` immediately followed by `on_execute`, no
//!   wrong paths), under which speculative and architectural state never
//!   diverge and the journal trivially verifies.
//!
//! Both schedules are legal by the trait's contract and produce identical
//! architectural results (the root `prop_exec_equiv` suite checks this on
//! every benchmark kernel).
//!
//! # Trigger set
//!
//! Like the hardware's PC-decode comparators, the controller can act
//! only at a few fetch addresses. [`LoopEngine::triggers`] publishes them
//! ([`ZolcTables::trigger_pcs`] while active, nothing while inactive);
//! the set is recomputed on every `zctl` and on every `zwr` of an address
//! or valid field, so executors skip both `decide` calls everywhere
//! else. The `zolc-core` `trigger_contract` property suite checks that
//! `decide` and `on_execute` are no-ops outside the set.

use crate::config::ZolcConfig;
use crate::dynamics::{decide, Decision, DynState};
use crate::tables::{WriteEffect, ZolcTables};
use std::collections::VecDeque;
use zolc_isa::{ZolcCtl, ZolcRegion};
use zolc_sim::{ExecEvent, FetchDecision, LoopEngine};

/// The zero-overhead loop controller.
///
/// # Examples
///
/// Directly exercising the engine interface (normally the pipeline does
/// this):
///
/// ```
/// use zolc_core::{Zolc, ZolcConfig};
/// use zolc_sim::LoopEngine;
/// use zolc_isa::ZolcCtl;
///
/// let mut z = Zolc::new(ZolcConfig::full());
/// z.exec_zctl(ZolcCtl::Activate { task: 0 });
/// assert!(z.arch_state().active);
/// z.exec_zctl(ZolcCtl::Deactivate);
/// assert!(!z.arch_state().active);
/// ```
#[derive(Debug, Clone)]
pub struct Zolc {
    tables: ZolcTables,
    arch: DynState,
    spec: DynState,
    journal: VecDeque<(u32, Decision)>,
    violations: Vec<String>,
    /// The trigger set: empty while inactive (see the module docs).
    triggers: Vec<u32>,
}

impl Zolc {
    /// Creates a controller with empty tables in inactive mode.
    pub fn new(config: ZolcConfig) -> Zolc {
        Zolc {
            tables: ZolcTables::new(config),
            arch: DynState::default(),
            spec: DynState::default(),
            journal: VecDeque::new(),
            violations: Vec::new(),
            triggers: Vec::new(),
        }
    }

    /// The hardware configuration.
    pub fn config(&self) -> &ZolcConfig {
        self.tables.config()
    }

    /// The table contents.
    pub fn tables(&self) -> &ZolcTables {
        &self.tables
    }

    /// Edits the tables directly, bypassing the instruction interface
    /// (used by [`crate::ZolcImage::load_into`]), and recomputes the
    /// trigger set afterwards, whatever `edit` returns.
    pub(crate) fn edit_tables<R>(&mut self, edit: impl FnOnce(&mut ZolcTables) -> R) -> R {
        let out = edit(&mut self.tables);
        self.refresh_triggers();
        out
    }

    fn refresh_triggers(&mut self) {
        if self.arch.active {
            self.tables.trigger_pcs(&mut self.triggers);
        } else {
            self.triggers.clear();
        }
    }

    /// The architectural dynamic state.
    pub fn arch_state(&self) -> &DynState {
        &self.arch
    }

    /// The speculative dynamic state.
    pub fn spec_state(&self) -> &DynState {
        &self.spec
    }

    /// Configuration violations and consistency-check failures recorded so
    /// far (empty on a correct run).
    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Activates the controller directly (equivalent to executing
    /// `zctl.on task`).
    pub fn activate(&mut self, task: u8) {
        self.exec_zctl(ZolcCtl::Activate { task });
    }

    /// Panics if any violation was recorded (test helper).
    ///
    /// # Panics
    ///
    /// Panics with the list of violations when the run was inconsistent.
    pub fn assert_consistent(&self) {
        assert!(
            self.violations.is_empty(),
            "ZOLC violations: {:#?}",
            self.violations
        );
    }

    fn record_violation(&mut self, msg: String) {
        // Bound memory usage on pathological runs.
        if self.violations.len() < 64 {
            self.violations.push(msg);
        }
    }
}

impl LoopEngine for Zolc {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        let d = decide(&self.tables, &mut self.spec, pc);
        if !d.is_trivial() {
            self.journal.push_back((pc, d));
        }
        FetchDecision {
            redirect: d.redirect,
            index_writes: d.writes,
        }
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        // Replay the decision on architectural state.
        let d = decide(&self.tables, &mut self.arch, pc);
        if !d.is_trivial() {
            match self.journal.pop_front() {
                Some((jpc, jd)) if jpc == pc && jd == d => {}
                Some((jpc, jd)) => self.record_violation(format!(
                    "decision mismatch at {pc:#x}: fetch made {jd:?} at {jpc:#x}, retire replayed {d:?} \
                     (an in-loop zwr probably executed between the fetch and retire of a task end)"
                )),
                None => self.record_violation(format!(
                    "retire-time decision {d:?} at {pc:#x} had no fetch-time counterpart"
                )),
            }
        }

        // Multiple-exit records: a taken branch at a registered address
        // re-targets the current task and clears the exited loops' counters.
        if let ExecEvent::Taken { target } = event {
            if self.arch.active {
                if let Some(rec) = self.tables.exit_at(pc).copied() {
                    if rec.target != 0 && rec.target != target {
                        self.record_violation(format!(
                            "exit record at {pc:#x} expected target {:#x}, branch went to {target:#x}",
                            rec.target
                        ));
                    }
                    self.arch.current_task = rec.target_task;
                    for k in ZolcTables::loops_in_mask(rec.clear_mask) {
                        self.arch.counts[usize::from(k)] = 0;
                    }
                    // The taken branch flushes the pipeline right after
                    // this call; on_flush copies arch (with the exit
                    // applied) over spec.
                }
            }
        }
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        match self.tables.write(region, index, field, value) {
            Ok(WriteEffect::Static) => {
                if self.arch.active && ZolcTables::moves_triggers(region, field) {
                    self.refresh_triggers();
                }
            }
            Ok(WriteEffect::Count { loop_id, value }) => {
                let k = usize::from(loop_id);
                if k < self.arch.counts.len() {
                    self.arch.counts[k] = value;
                    self.spec.counts[k] = value;
                }
            }
            Err(e) => self.record_violation(format!("zwr rejected: {e}")),
        }
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        match op {
            ZolcCtl::Activate { task } => {
                self.arch.active = true;
                self.arch.current_task = task;
                self.spec = self.arch;
            }
            ZolcCtl::Deactivate => {
                self.arch.active = false;
                self.spec = self.arch;
            }
            ZolcCtl::Reset => {
                self.tables.reset();
                self.arch = DynState::default();
                self.spec = DynState::default();
                self.journal.clear();
            }
        }
        self.refresh_triggers();
    }

    fn on_flush(&mut self) {
        self.spec = self.arch;
        self.journal.clear();
    }

    fn triggers(&self) -> Option<&[u32]> {
        Some(&self.triggers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TASK_NONE;
    use crate::tables::{LoopRecord, TaskRecord};
    use zolc_isa::{loop_field, reg, task_field};

    fn controller_with_loop() -> Zolc {
        let mut z = Zolc::new(ZolcConfig::lite());
        z.edit_tables(|t| {
            t.loops_mut()[0] = LoopRecord {
                init: 0,
                step: 1,
                limit: 2,
                index_reg: Some(reg(4)),
                start: 0x10,
                end: 0x18,
                flags: 0,
            };
            t.tasks_mut()[0] = TaskRecord {
                end: 0x18,
                loop_id: 0,
                next_iter: 0,
                next_fallthru: TASK_NONE,
                valid: true,
                flags: 0,
            };
        });
        z.activate(0);
        z
    }

    #[test]
    fn trigger_set_follows_activation_and_address_writes() {
        let mut z = controller_with_loop();
        // task end 0x18, the pc before loop 0's start, and the unused
        // loop records' start 0 (pc 0xfffffffc)
        assert_eq!(z.triggers(), Some(&[0x0c, 0x18, 0xffff_fffc][..]));
        z.exec_zwr(ZolcRegion::Task, 0, task_field::END, 0x20);
        assert_eq!(z.triggers(), Some(&[0x0c, 0x20, 0xffff_fffc][..]));
        // a limit write leaves the set alone
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, 9);
        assert_eq!(z.triggers(), Some(&[0x0c, 0x20, 0xffff_fffc][..]));
        z.exec_zctl(ZolcCtl::Deactivate);
        assert_eq!(z.triggers(), Some(&[][..]));
        // inactive: writes do not publish triggers, activation does
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::START, 0x40);
        assert_eq!(z.triggers(), Some(&[][..]));
        z.activate(0);
        assert_eq!(z.triggers(), Some(&[0x20, 0x3c, 0xffff_fffc][..]));
        assert!(!z.is_passive());
    }

    #[test]
    fn fetch_then_execute_is_consistent() {
        let mut z = controller_with_loop();
        // walk the loop exactly as the pipeline would: fetch then retire
        for pc in [0x0c, 0x10, 0x14, 0x18, 0x10, 0x14, 0x18, 0x1c] {
            let _ = z.on_fetch(pc);
            z.on_execute(pc, ExecEvent::Plain);
        }
        z.assert_consistent();
        assert_eq!(z.arch_state().counts[0], 0);
        assert_eq!(z.arch_state(), z.spec_state());
    }

    #[test]
    fn functional_drive_pattern_with_flush_mirroring_is_consistent() {
        // The functional executor's schedule: fetch/execute strictly
        // alternate and on_flush is mirrored after taken transfers; spec
        // and arch state must track each other exactly throughout.
        let mut z = controller_with_loop();
        for pc in [0x0c, 0x10, 0x14, 0x18, 0x10, 0x14, 0x18, 0x1c] {
            let _ = z.on_fetch(pc);
            z.on_execute(pc, ExecEvent::Plain);
            z.on_flush(); // worst case: mirror a flush after every instr
            assert_eq!(z.arch_state(), z.spec_state());
        }
        z.assert_consistent();
        assert_eq!(z.arch_state().counts[0], 0);
    }

    #[test]
    fn speculative_state_rolls_back_on_flush() {
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x0c);
        z.on_execute(0x0c, ExecEvent::Plain);
        // fetch the task end speculatively (advances spec)…
        let d = z.on_fetch(0x18);
        assert_eq!(d.redirect, Some(0x10));
        assert_eq!(z.spec_state().counts[0], 1);
        assert_eq!(z.arch_state().counts[0], 0);
        // …but a flush squashes it before it retires
        z.on_flush();
        assert_eq!(z.spec_state().counts[0], 0);
        z.assert_consistent();
    }

    #[test]
    fn mis_scheduled_zwr_is_detected() {
        let mut z = controller_with_loop();
        let _ = z.on_fetch(0x0c);
        z.on_execute(0x0c, ExecEvent::Plain);
        // fetch decision for the end uses limit=2 (iterate)…
        let _ = z.on_fetch(0x18);
        // …then a zwr changes the limit before the end retires
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::LIMIT, 1);
        z.on_execute(0x18, ExecEvent::Plain);
        assert!(!z.violations().is_empty());
    }

    #[test]
    fn zwr_count_updates_both_states() {
        let mut z = controller_with_loop();
        z.exec_zwr(ZolcRegion::Loop, 0, loop_field::COUNT, 5);
        assert_eq!(z.arch_state().counts[0], 5);
        assert_eq!(z.spec_state().counts[0], 5);
    }

    #[test]
    fn invalid_zwr_recorded_as_violation() {
        let mut z = Zolc::new(ZolcConfig::lite());
        z.exec_zwr(ZolcRegion::Exit, 0, 0, 0); // lite has no exit records
        assert_eq!(z.violations().len(), 1);
    }

    #[test]
    fn reset_clears_state_and_tables() {
        let mut z = controller_with_loop();
        z.exec_zctl(ZolcCtl::Reset);
        assert!(!z.arch_state().active);
        assert_eq!(z.tables().loop_rec(0).unwrap().limit, 0);
    }

    #[test]
    fn deactivate_stops_decisions() {
        let mut z = controller_with_loop();
        z.exec_zctl(ZolcCtl::Deactivate);
        let d = z.on_fetch(0x18);
        assert_eq!(d.redirect, None);
    }
}
