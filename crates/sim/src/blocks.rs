//! The block-compiled functional executor: basic-block superinstructions
//! over the shared step core.
//!
//! [`CompiledCpu`] is the third executor tier. Where [`FunctionalCpu`]
//! interprets one instruction per step (fetch, build an
//! [`Effect`](crate::Effect), match on it), this tier predecodes the
//! [`TextImage`] into **basic blocks** on first entry: the straight-line
//! prefix becomes a dense vector of pre-lowered [`Op`]s — operands
//! extracted, immediates pre-extended, ALU semantics reduced to a
//! function pointer — and the block's control transfer is handled once
//! by a precomputed [`Terminator`]. Executing a block is a tight loop
//! over that vector with a single fuel check and a single retire-count
//! update per block, which is what makes this tier the fastest way to
//! get architectural results at sweep scale.
//!
//! # Compile table and fallback
//!
//! Blocks are compiled once per entry pc into the write-once table of
//! the session's [`CompiledProgram`](crate::CompiledProgram), shared by
//! every concurrent session and read without a lock. Only passive
//! engine runs dispatch compiled blocks: an active engine (see
//! [`LoopEngine::is_passive`]) takes the per-instruction step core
//! ([`Machine::step_instr`]), the exact interpreter `FunctionalCpu`
//! runs, which consults it at its trigger pcs only
//! ([`LoopEngine::triggers`]); the nest tier runs active engines on
//! superblocks, this tier keeps the step core. The same fallback
//! handles everything a block cannot express:
//!
//! * `zwr`/`zctl`/`dbnz` — loop-controller interactions (and the fused
//!   branch-decrement) terminate the block and execute via the step
//!   core;
//! * fetch faults — a block reaching a misaligned or out-of-text pc
//!   defers to the step core, which raises the architectural
//!   [`RunError`];
//! * retire tracing (`trace_retire`) — per-instruction events cannot be
//!   batched, so traced runs take the step core throughout;
//! * the fuel boundary — when the remaining fuel cannot cover a whole
//!   block, execution finishes per-instruction so
//!   [`RunError::OutOfFuel`] fires at exactly the same instruction as
//!   on [`FunctionalCpu`].
//!
//! Because compiled blocks mutate the same [`Machine`] state the step
//! core does, the two functional tiers are bit-exact on registers,
//! memory, retire counts and every architectural event counter — the
//! four-way `prop_exec_equiv` suite holds all executors to it.

use crate::cpu::{CpuConfig, Executor, ExecutorKind, RetireEvent, RunError};
use crate::engine::LoopEngine;
use crate::exec::{LoadOp, StoreOp, TextImage};
use crate::functional::Machine;
use crate::mem::{MemError, Memory};
use crate::program::CompiledProgram;
use crate::regfile::RegFile;
use crate::stats::Stats;
use std::sync::Arc;
use zolc_isa::{Instr, Reg};

/// Upper bound on ops per block: bounds compile latency and keeps a
/// pathological straight-line program from producing one giant block
/// (the tail past the cap chains into the next block).
const MAX_BLOCK_OPS: usize = 4096;

pub(crate) type AluFn = fn(u32, u32) -> u32;
pub(crate) type CondFn = fn(u32, u32) -> bool;

/// One pre-lowered straight-line instruction. Shared with the nest
/// tier (`crate::nest`), whose superblocks embed the same ops.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Op {
    /// `dst = f(regs[a], regs[b])`.
    Alu { dst: Reg, a: Reg, b: Reg, f: AluFn },
    /// `dst = f(regs[a], imm)` — the immediate is pre-extended to the
    /// exact `u32` the semantics core would compute.
    AluImm {
        dst: Reg,
        a: Reg,
        imm: u32,
        f: AluFn,
    },
    /// `dst = mem[regs[base] + off]` (off pre-sign-extended; a load to
    /// `r0` still performs — and can fault on — the access).
    Load {
        dst: Reg,
        base: Reg,
        off: u32,
        op: LoadOp,
    },
    /// `mem[regs[base] + off] = regs[val]`.
    Store {
        val: Reg,
        base: Reg,
        off: u32,
        op: StoreOp,
    },
    /// `nop`.
    Nop,
}

/// How a block ends. Targets and link values are precomputed at compile
/// time, so the terminator costs one match at run time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Terminator {
    /// Re-enter the per-instruction step core at the terminator pc:
    /// `zwr`/`zctl`/`dbnz`, fetch faults, or the block-length cap.
    StepFrom,
    /// `halt` retires here.
    Halt,
    /// A conditional branch: `cond(regs[rs], regs[rt])` picks between
    /// the precomputed taken target and the fall-through.
    Branch {
        rs: Reg,
        rt: Reg,
        cond: CondFn,
        taken: u32,
    },
    /// `j`/`jal` with the link write (if any) precomputed.
    Jump {
        target: u32,
        link: Option<(Reg, u32)>,
    },
    /// `jr` — target read from the register file at run time.
    Jr { rs: Reg },
}

/// One compiled basic block. Immutable once compiled, so the table in
/// [`CompiledProgram`] serves it to any number of concurrent sessions.
#[derive(Debug)]
pub(crate) struct Block {
    /// Byte address of the first op.
    entry: u32,
    /// The straight-line prefix.
    ops: Box<[Op]>,
    term: Terminator,
    /// Instructions this block retires when it runs to completion
    /// (`ops.len()`, plus one when the terminator retires in-block).
    cost: u64,
}

impl Block {
    /// Byte address of the terminator (first address after the ops).
    fn term_pc(&self) -> u32 {
        self.entry + 4 * self.ops.len() as u32
    }
}

// ---- ALU semantics as named fn items (coerce to fn pointers) ----------
// Each mirrors one arm of `crate::exec::step` exactly.

fn f_add(a: u32, b: u32) -> u32 {
    a.wrapping_add(b)
}
fn f_sub(a: u32, b: u32) -> u32 {
    a.wrapping_sub(b)
}
fn f_and(a: u32, b: u32) -> u32 {
    a & b
}
fn f_or(a: u32, b: u32) -> u32 {
    a | b
}
fn f_xor(a: u32, b: u32) -> u32 {
    a ^ b
}
fn f_nor(a: u32, b: u32) -> u32 {
    !(a | b)
}
fn f_slt(a: u32, b: u32) -> u32 {
    ((a as i32) < (b as i32)) as u32
}
fn f_sltu(a: u32, b: u32) -> u32 {
    (a < b) as u32
}
fn f_sllv(a: u32, b: u32) -> u32 {
    a << (b & 31)
}
fn f_srlv(a: u32, b: u32) -> u32 {
    a >> (b & 31)
}
fn f_srav(a: u32, b: u32) -> u32 {
    ((a as i32) >> (b & 31)) as u32
}
fn f_sll(a: u32, b: u32) -> u32 {
    a << b
}
fn f_srl(a: u32, b: u32) -> u32 {
    a >> b
}
fn f_sra(a: u32, b: u32) -> u32 {
    ((a as i32) >> b) as u32
}
fn f_mul(a: u32, b: u32) -> u32 {
    a.wrapping_mul(b)
}
fn f_mulh(a: u32, b: u32) -> u32 {
    ((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32
}
fn f_snd(_a: u32, b: u32) -> u32 {
    b
}

// ---- branch conditions -------------------------------------------------

fn c_eq(a: u32, b: u32) -> bool {
    a == b
}
fn c_ne(a: u32, b: u32) -> bool {
    a != b
}
fn c_lez(a: u32, _b: u32) -> bool {
    (a as i32) <= 0
}
fn c_gtz(a: u32, _b: u32) -> bool {
    (a as i32) > 0
}
fn c_ltz(a: u32, _b: u32) -> bool {
    (a as i32) < 0
}
fn c_gez(a: u32, _b: u32) -> bool {
    (a as i32) >= 0
}

/// What `lower` produced for one instruction.
pub(crate) enum Lowered {
    Op(Op),
    Term(Terminator),
}

/// Lowers one instruction at `pc` into a block op or terminator.
pub(crate) fn lower(instr: Instr, pc: u32) -> Lowered {
    use Instr::*;
    let alu = |dst, a, b, f| Lowered::Op(Op::Alu { dst, a, b, f });
    let imm = |dst, a, imm, f| Lowered::Op(Op::AluImm { dst, a, imm, f });
    let sext = |v: i16| v as i32 as u32;
    match instr {
        Add { rd, rs, rt } => alu(rd, rs, rt, f_add),
        Sub { rd, rs, rt } => alu(rd, rs, rt, f_sub),
        And { rd, rs, rt } => alu(rd, rs, rt, f_and),
        Or { rd, rs, rt } => alu(rd, rs, rt, f_or),
        Xor { rd, rs, rt } => alu(rd, rs, rt, f_xor),
        Nor { rd, rs, rt } => alu(rd, rs, rt, f_nor),
        Slt { rd, rs, rt } => alu(rd, rs, rt, f_slt),
        Sltu { rd, rs, rt } => alu(rd, rs, rt, f_sltu),
        Sllv { rd, rt, rs } => alu(rd, rt, rs, f_sllv),
        Srlv { rd, rt, rs } => alu(rd, rt, rs, f_srlv),
        Srav { rd, rt, rs } => alu(rd, rt, rs, f_srav),
        Mul { rd, rs, rt } => alu(rd, rs, rt, f_mul),
        Mulh { rd, rs, rt } => alu(rd, rs, rt, f_mulh),
        Sll { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sll),
        Srl { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_srl),
        Sra { rd, rt, sh } => imm(rd, rt, u32::from(sh), f_sra),
        Addi { rt, rs, imm: v } => imm(rt, rs, sext(v), f_add),
        Slti { rt, rs, imm: v } => imm(rt, rs, sext(v), f_slt),
        Sltiu { rt, rs, imm: v } => imm(rt, rs, sext(v), f_sltu),
        Andi { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_and),
        Ori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_or),
        Xori { rt, rs, imm: v } => imm(rt, rs, u32::from(v), f_xor),
        Lui { rt, imm: v } => imm(rt, Reg::ZERO, u32::from(v) << 16, f_snd),
        Lb { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Byte,
        }),
        Lbu { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::ByteUnsigned,
        }),
        Lh { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Half,
        }),
        Lhu { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::HalfUnsigned,
        }),
        Lw { rt, rs, off } => Lowered::Op(Op::Load {
            dst: rt,
            base: rs,
            off: sext(off),
            op: LoadOp::Word,
        }),
        Sb { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Byte,
        }),
        Sh { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Half,
        }),
        Sw { rt, rs, off } => Lowered::Op(Op::Store {
            val: rt,
            base: rs,
            off: sext(off),
            op: StoreOp::Word,
        }),
        Nop => Lowered::Op(Op::Nop),
        Beq { rs, rt, .. } => branch(instr, pc, rs, rt, c_eq),
        Bne { rs, rt, .. } => branch(instr, pc, rs, rt, c_ne),
        Blez { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_lez),
        Bgtz { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_gtz),
        Bltz { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_ltz),
        Bgez { rs, .. } => branch(instr, pc, rs, Reg::ZERO, c_gez),
        J { target } => Lowered::Term(Terminator::Jump {
            target: target << 2,
            link: None,
        }),
        Jal { target } => Lowered::Term(Terminator::Jump {
            target: target << 2,
            link: Some((Reg::RA, pc.wrapping_add(4))),
        }),
        Jr { rs } => Lowered::Term(Terminator::Jr { rs }),
        Halt => Lowered::Term(Terminator::Halt),
        // Loop-controller interactions and the fused branch-decrement
        // run through the step core.
        Dbnz { .. } | Zwr { .. } | Zctl { .. } => Lowered::Term(Terminator::StepFrom),
    }
}

fn branch(instr: Instr, pc: u32, rs: Reg, rt: Reg, cond: CondFn) -> Lowered {
    Lowered::Term(Terminator::Branch {
        rs,
        rt,
        cond,
        taken: instr.branch_target(pc).expect("branch has target"),
    })
}

/// Compiles the basic block entered at `entry`.
pub(crate) fn compile(text: &TextImage, entry: u32) -> Block {
    let mut ops = Vec::new();
    let mut pc = entry;
    let term = loop {
        let Ok(instr) = text.fetch(pc) else {
            // The step core raises the architectural fetch fault.
            break Terminator::StepFrom;
        };
        match lower(instr, pc) {
            Lowered::Op(op) => {
                ops.push(op);
                pc = pc.wrapping_add(4);
                if ops.len() >= MAX_BLOCK_OPS {
                    break Terminator::StepFrom;
                }
            }
            Lowered::Term(t) => break t,
        }
    };
    let cost = ops.len() as u64
        + match term {
            Terminator::StepFrom => 0,
            _ => 1,
        };
    Block {
        entry,
        ops: ops.into_boxed_slice(),
        term,
        cost,
    }
}

/// How one block execution left the machine.
enum BlockExit {
    /// Continue with block dispatch at the new pc.
    Continue,
    /// Execute one instruction through the step core, then continue.
    Step,
    /// `halt` retired.
    Halted,
}

/// Runs one compiled block against the machine state. The caller has
/// already checked that the remaining fuel covers `b.cost`.
///
/// The op loop works on the raw register array: indices are masked to
/// 31 (every [`Reg`] is < 32, so the mask is a no-op that elides the
/// bounds check) and writes go through unconditionally, with slot 0
/// re-zeroed afterwards — branchless discard of `r0` destinations.
fn run_block(m: &mut Machine, b: &Block) -> Result<BlockExit, RunError> {
    let Machine {
        regs: rf,
        mem,
        stats,
        pc,
        ..
    } = m;
    let regs = rf.raw_mut();
    for (k, op) in b.ops.iter().enumerate() {
        match *op {
            Op::Alu { dst, a, b: rb, f } => {
                let v = f(regs[a.index() & 31], regs[rb.index() & 31]);
                regs[dst.index() & 31] = v;
                regs[0] = 0;
            }
            Op::AluImm { dst, a, imm, f } => {
                let v = f(regs[a.index() & 31], imm);
                regs[dst.index() & 31] = v;
                regs[0] = 0;
            }
            Op::Load { dst, base, off, op } => {
                let addr = regs[base.index() & 31].wrapping_add(off);
                match op.read(mem, addr) {
                    Ok(v) => {
                        regs[dst.index() & 31] = v;
                        regs[0] = 0;
                    }
                    Err(e) => return Err(fault(stats, pc, b, k, e)),
                }
            }
            Op::Store { val, base, off, op } => {
                let addr = regs[base.index() & 31].wrapping_add(off);
                let v = regs[val.index() & 31];
                if let Err(e) = op.write(mem, addr, v) {
                    return Err(fault(stats, pc, b, k, e));
                }
            }
            Op::Nop => {}
        }
    }
    stats.retired += b.ops.len() as u64;
    let term_pc = b.term_pc();
    match b.term {
        Terminator::StepFrom => {
            *pc = term_pc;
            Ok(BlockExit::Step)
        }
        Terminator::Halt => {
            stats.retired += 1;
            // As in the step core, the pc parks on the `halt` itself.
            *pc = term_pc;
            Ok(BlockExit::Halted)
        }
        Terminator::Branch {
            rs,
            rt,
            cond,
            taken,
        } => {
            stats.retired += 1;
            stats.branches += 1;
            if cond(regs[rs.index() & 31], regs[rt.index() & 31]) {
                stats.taken_branches += 1;
                *pc = taken;
            } else {
                *pc = term_pc.wrapping_add(4);
            }
            Ok(BlockExit::Continue)
        }
        Terminator::Jump { target, link } => {
            if let Some((r, v)) = link {
                regs[r.index() & 31] = v;
                regs[0] = 0;
            }
            stats.retired += 1;
            *pc = target;
            Ok(BlockExit::Continue)
        }
        Terminator::Jr { rs } => {
            stats.retired += 1;
            *pc = regs[rs.index() & 31];
            Ok(BlockExit::Continue)
        }
    }
}

/// A data fault at op `k`: ops before it have committed, the faulting
/// instruction has not retired, and the pc parks on it — exactly the
/// step core's fault state.
fn fault(stats: &mut Stats, pc: &mut u32, b: &Block, k: usize, e: MemError) -> RunError {
    stats.retired += k as u64;
    *pc = b.entry + 4 * k as u32;
    RunError::Mem(e)
}

/// The block-compiled simulated processor (see the module docs).
///
/// # Examples
///
/// ```
/// use zolc_sim::{CompiledCpu, CompiledProgram, CpuConfig, NullEngine};
/// let program = zolc_isa::assemble("
///     li   r1, 5
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// let mut cpu = CompiledCpu::session(&prog, CpuConfig::default())?;
/// let stats = cpu.run(&mut NullEngine, 10_000).unwrap();
/// assert_eq!(cpu.regs().read(zolc_isa::reg(2)), 5 + 4 + 3 + 2 + 1);
/// assert_eq!(stats.cycles, 0); // no timing model
/// assert_eq!(stats.retired, 2 + 3 * 5 + 1);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct CompiledCpu {
    m: Machine,
}

impl CompiledCpu {
    /// Opens a fresh run session over a shared compiled program: text
    /// and data written into new memory, pc at the start of text,
    /// zeroed registers and statistics. Sessions sharing one
    /// [`CompiledProgram`] also share its block table — each basic
    /// block is compiled once, by whichever session gets there first.
    ///
    /// # Errors
    ///
    /// Returns a [`MemError`] if a segment does not fit in memory.
    pub fn session(
        prog: &Arc<CompiledProgram>,
        config: CpuConfig,
    ) -> Result<CompiledCpu, MemError> {
        Ok(CompiledCpu {
            m: Machine::session(prog, config)?,
        })
    }

    /// The data memory.
    pub fn mem(&self) -> &Memory {
        &self.m.mem
    }

    /// Mutable access to data memory (for seeding test inputs).
    pub fn mem_mut(&mut self) -> &mut Memory {
        &mut self.m.mem
    }

    /// The register file.
    pub fn regs(&self) -> &RegFile {
        &self.m.regs
    }

    /// Mutable access to the register file (for seeding test inputs).
    pub fn regs_mut(&mut self) -> &mut RegFile {
        &mut self.m.regs
    }

    /// Statistics of the run so far (`cycles` is always 0; event counters
    /// match the pipeline's architectural counts).
    pub fn stats(&self) -> &Stats {
        &self.m.stats
    }

    /// The retire-order trace (empty unless `trace_retire` was set); the
    /// `cycle` field holds the retire ordinal.
    pub fn retire_log(&self) -> &[RetireEvent] {
        &self.m.retire_log
    }

    /// Runs until `halt` retires or `fuel` instructions retire.
    ///
    /// Active engines and retire-traced runs take the step core for the
    /// whole run, hooks filtered by the engine's trigger set (see the
    /// module docs); passive untraced runs dispatch compiled blocks.
    ///
    /// # Errors
    ///
    /// * [`RunError::OutOfFuel`] if `halt` is not reached in budget;
    /// * [`RunError::PcOutOfText`] if execution leaves the text segment;
    /// * [`RunError::MisalignedFetch`] on a non-4-aligned pc;
    /// * [`RunError::Mem`] on a data access fault.
    pub fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        if !engine.is_passive() || self.m.config.trace_retire {
            return self.m.run(engine, fuel);
        }
        let prog = Arc::clone(&self.m.prog);
        let limit = self.m.stats.retired + fuel;
        loop {
            if self.m.stats.retired >= limit {
                return Err(RunError::OutOfFuel { fuel });
            }
            let block = prog.block_at(self.m.pc)?;
            if limit - self.m.stats.retired < block.cost.max(1) {
                // Not enough fuel for the whole block: finish per
                // instruction so OutOfFuel fires at the exact boundary.
                if self.m.step_instr::<true>(engine)? {
                    return Ok(self.m.stats);
                }
                continue;
            }
            match run_block(&mut self.m, block)? {
                BlockExit::Continue => {}
                BlockExit::Halted => return Ok(self.m.stats),
                BlockExit::Step => {
                    // The terminator was not covered by the pre-block
                    // fuel check (StepFrom blocks have cost = ops only),
                    // so re-check before stepping it.
                    if self.m.stats.retired >= limit {
                        return Err(RunError::OutOfFuel { fuel });
                    }
                    if self.m.step_instr::<true>(engine)? {
                        return Ok(self.m.stats);
                    }
                }
            }
        }
    }
}

impl Executor for CompiledCpu {
    fn kind(&self) -> ExecutorKind {
        ExecutorKind::Compiled
    }

    fn run(&mut self, engine: &mut dyn LoopEngine, fuel: u64) -> Result<Stats, RunError> {
        CompiledCpu::run(self, engine, fuel)
    }

    fn regs(&self) -> &RegFile {
        CompiledCpu::regs(self)
    }

    fn regs_mut(&mut self) -> &mut RegFile {
        CompiledCpu::regs_mut(self)
    }

    fn mem(&self) -> &Memory {
        CompiledCpu::mem(self)
    }

    fn mem_mut(&mut self) -> &mut Memory {
        CompiledCpu::mem_mut(self)
    }

    fn stats(&self) -> &Stats {
        CompiledCpu::stats(self)
    }

    fn retire_log(&self) -> &[RetireEvent] {
        CompiledCpu::retire_log(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::NullEngine;
    use crate::FunctionalCpu;
    use zolc_isa::{assemble, reg, Program};

    fn compiled_session(p: &Program) -> CompiledCpu {
        CompiledCpu::session(&CompiledProgram::compile(p.clone()), CpuConfig::default()).unwrap()
    }

    fn run_compiled(src: &str) -> (CompiledCpu, Stats) {
        let p = assemble(src).expect("assembles");
        let mut cpu = compiled_session(&p);
        let stats = cpu.run(&mut NullEngine, 1_000_000).expect("runs");
        (cpu, stats)
    }

    fn assert_matches_functional(p: &Program, fuel: u64) {
        let prog = CompiledProgram::compile(p.clone());
        let mut f = FunctionalCpu::session(&prog, CpuConfig::default()).unwrap();
        let fr = f.run(&mut NullEngine, fuel);
        let mut c = CompiledCpu::session(&prog, CpuConfig::default()).unwrap();
        let cr = c.run(&mut NullEngine, fuel);
        assert_eq!(fr, cr, "run results differ");
        assert_eq!(f.regs().snapshot(), c.regs().snapshot(), "registers");
        assert_eq!(f.stats(), c.stats(), "stats");
    }

    #[test]
    fn countdown_loop_matches_functional() {
        let (cpu, stats) = run_compiled(
            "
            li   r1, 10
            li   r2, 0
      top:  add  r2, r2, r1
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), (1..=10).sum::<u32>());
        assert_eq!(stats.cycles, 0);
        assert_eq!(stats.retired, 2 + 3 * 10 + 1);
        assert_eq!(stats.taken_branches, 9);
        assert_eq!(stats.branches, 10);
    }

    #[test]
    fn dbnz_jumps_and_calls_take_the_fallback() {
        let (cpu, stats) = run_compiled(
            "
            li   r1, 4
            jal  sub
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
      sub:  addi r5, r0, 9
            jr   r31
        ",
        );
        assert_eq!(cpu.regs().read(reg(2)), 4);
        assert_eq!(cpu.regs().read(reg(5)), 9);
        assert_eq!(stats.dbnz_retired, 4);
    }

    #[test]
    fn mid_block_fault_commits_the_prefix() {
        // The store to a misaligned data address faults with the two
        // earlier ALU results already committed and the pc parked on the
        // faulting instruction — on both functional tiers.
        let p = assemble(
            "
            li   r1, 2
            li   r2, 77
            sw   r2, (r1)
            halt
        ",
        )
        .unwrap();
        assert_matches_functional(&p, 1000);
        let mut c = compiled_session(&p);
        assert!(matches!(
            c.run(&mut NullEngine, 1000),
            Err(RunError::Mem(_))
        ));
        assert_eq!(c.regs().read(reg(2)), 77);
        assert_eq!(c.stats().retired, 2);
    }

    #[test]
    fn fuel_boundary_matches_functional_exactly() {
        let p = assemble(
            "
            li   r1, 3
      top:  addi r2, r2, 1
            dbnz r1, top
            halt
        ",
        )
        .unwrap();
        // full run retires 1 + 2*3 + 1 = 8 instructions
        for fuel in 0..=9 {
            assert_matches_functional(&p, fuel);
        }
    }

    #[test]
    fn fetch_faults_match_functional() {
        for src in ["nop\nnop\n", "li r1, 6\njr r1\nhalt"] {
            let p = assemble(src).unwrap();
            assert_matches_functional(&p, 1000);
        }
        let p = assemble("li r1, 6\njr r1\nhalt").unwrap();
        let mut c = compiled_session(&p);
        let err = c.run(&mut NullEngine, 1000).unwrap_err();
        assert_eq!(err, RunError::MisalignedFetch { pc: 6 });
    }

    #[test]
    fn trace_retire_falls_back_to_the_step_core() {
        let p = assemble("nop\nnop\nhalt").unwrap();
        let mut cpu = CompiledCpu::session(
            &CompiledProgram::compile(p),
            CpuConfig {
                trace_retire: true,
                ..CpuConfig::default()
            },
        )
        .unwrap();
        cpu.run(&mut NullEngine, 100).unwrap();
        let ords: Vec<u64> = cpu.retire_log().iter().map(|e| e.cycle).collect();
        assert_eq!(ords, vec![1, 2, 3]);
    }

    #[test]
    fn blocks_are_reused_across_iterations() {
        // A long-running loop compiles its body exactly once, and a
        // second session over the same program compiles nothing new.
        let p = assemble(
            "
            li   r1, 1000
      top:  addi r2, r2, 3
            addi r1, r1, -1
            bne  r1, r0, top
            halt
        ",
        )
        .unwrap();
        let prog = CompiledProgram::compile(p);
        let mut c = CompiledCpu::session(&prog, CpuConfig::default()).unwrap();
        c.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(c.regs().read(reg(2)), 3000);
        // the entry block, the loop-head block and the `halt` block
        assert_eq!(prog.cache_stats(), 3);
        let mut c2 = CompiledCpu::session(&prog, CpuConfig::default()).unwrap();
        c2.run(&mut NullEngine, 1_000_000).unwrap();
        assert_eq!(c2.regs().read(reg(2)), 3000);
        assert_eq!(prog.cache_stats(), 3);
    }
}
