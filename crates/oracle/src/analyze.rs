//! The summarization walker: latch recognition, the symbolic frame
//! walk, and the matrix closed form for counted latches.
//!
//! The analyzer executes the program *concretely* at the top level (it
//! is an interpreter there, minus the loops) and *symbolically* inside
//! recognized counted latches: each loop body is walked once over the
//! [`Lin`] domain, producing a per-iteration affine map that a
//! homogeneous matrix power folds into the exact final state. Anything
//! the domain cannot express exactly is a [`Reason`]-carrying refusal —
//! the oracle never approximates.
//!
//! When a pure affine fold refuses, a **stabilization retry** widens
//! the fragment without weakening that guarantee: tolerant probe walks
//! (which produce ⊥ instead of refusing) look for written registers
//! that settle to iteration-independent constants, the settling prefix
//! is peeled as real one-iteration folds, and the remainder folds with
//! the settled registers treated as invariant. The probe is heuristic,
//! the claims are not — the peels are ordinary verified walks, the
//! base case (the peeled prefix really establishes the constants) and
//! the induction step (a steady iteration reproduces them) are both
//! re-checked on real walks, and any failure falls back to the
//! original refusal.

use crate::expr::Lin;
use crate::summary::{Reason, Summary, Unanalyzable};
use std::collections::{BTreeMap, HashMap};
use zolc_isa::{Instr, Program, Reg, DATA_BASE, TEXT_BASE};

/// Instruction budget of one summarization (visited instructions plus
/// loop entries); beyond it the walk refuses with
/// [`Reason::OutOfBudget`].
const MAX_STEPS: u64 = 200_000;
/// Maximum loop-frame depth (the generated idiom nests ≤ 6 deep).
const MAX_DEPTH: usize = 64;

/// A recognized counted latch: `addi c, c, -1` at `addi_pc`
/// immediately followed by `bne c, r0, top` with `top <= addi_pc`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Latch {
    top: u32,
    addi_pc: u32,
    bne_pc: u32,
    counter: Reg,
}

/// One memory event of a loop frame, in body order. The top-level
/// frame commits stores directly and records no events.
#[derive(Debug, Clone)]
enum Evt {
    Store {
        addr: u32,
        width: u8,
        value: Lin,
        known: Option<u32>,
    },
    Load {
        pc: u32,
        addr: u32,
        width: u8,
    },
}

/// Extension rule of a load (mirrors the ISA's width semantics).
#[derive(Debug, Clone, Copy)]
enum Ext {
    SignByte,
    ZeroByte,
    SignHalf,
    ZeroHalf,
    Word,
}

impl Ext {
    fn width(self) -> u8 {
        match self {
            Ext::SignByte | Ext::ZeroByte => 1,
            Ext::SignHalf | Ext::ZeroHalf => 2,
            Ext::Word => 4,
        }
    }

    /// Applies the extension to the raw stored bits (low `width` bytes
    /// of `v`).
    fn extend(self, v: u32) -> u32 {
        match self {
            Ext::SignByte => v as u8 as i8 as i32 as u32,
            Ext::ZeroByte => u32::from(v as u8),
            Ext::SignHalf => v as u16 as i16 as i32 as u32,
            Ext::ZeroHalf => u32::from(v as u16),
            Ext::Word => v,
        }
    }
}

/// One walk frame: the top level (`latch == None`, everything
/// resolvable) or a loop body (`latch == Some`, values symbolic over
/// the iteration-entry registers).
#[derive(Debug)]
struct Frame {
    latch: Option<Latch>,
    /// Concrete frame-entry register values, where known.
    entry_known: [Option<u32>; 32],
    /// Syntactic write-set of the latch range — registers whose entry
    /// value varies across iterations. Empty for the top frame.
    w: [bool; 32],
    /// Current register values in the frame-entry basis.
    regs: Vec<Lin>,
    /// Memory events in body order (loop frames only).
    events: Vec<Evt>,
    /// Stabilization-probe mode: instead of refusing, unresolvable data
    /// goes to ⊥ and unresolvable branches guess not-taken. Probe
    /// frames are discarded — only register constancy is read off, and
    /// every constancy claim is re-verified by real walks.
    tolerant: bool,
    retired: u64,
    branches: u64,
    taken: u64,
}

impl Frame {
    fn new(latch: Option<Latch>, entry_known: [Option<u32>; 32], w: [bool; 32]) -> Frame {
        Frame {
            latch,
            entry_known,
            w,
            regs: (0..32).map(Lin::var).collect(),
            events: Vec::new(),
            tolerant: false,
            retired: 0,
            branches: 0,
            taken: 0,
        }
    }
}

/// Register discipline of one [`Analyzer::fold_iterations`] walk.
#[derive(Clone, Copy)]
enum FoldMode<'s> {
    /// One symbolic body walk over the full syntactic write-set.
    Affine,
    /// One real iteration in the parent's resolvable entry state
    /// (empty write-set): a peeled trip of the settling prefix.
    Peel,
    /// Steady-state fold: settled registers resolve to their constants,
    /// and the walked rows must reproduce them.
    Steady(&'s Stab),
}

/// Result of a stabilization probe: which write-set registers settle to
/// iteration-independent constants, their values, and the settling
/// depth in iterations.
struct Stab {
    mask: [bool; 32],
    /// `None` marks an identity row: the register is settled (unchanged
    /// by every steady iteration) but its constant is only fixed from
    /// the real parent state after the peeled prefix runs.
    val: [Option<u32>; 32],
    rounds: u64,
}

/// Resolves a [`Lin`] to a concrete value: possible exactly when every
/// referenced entry register is loop-invariant (not in the frame's
/// write-set) and concretely known at frame entry.
fn resolve(f: &Frame, l: &Lin) -> Option<u32> {
    if l.bot {
        return None;
    }
    let mut v = l.c;
    for j in 1..32 {
        let k = l.coeffs[j];
        if k == 0 {
            continue;
        }
        if f.w[j] {
            return None;
        }
        v = v.wrapping_add(k.wrapping_mul(f.entry_known[j]?));
    }
    Some(v)
}

fn src(f: &Frame, r: Reg) -> Lin {
    if r.is_zero() {
        Lin::konst(0)
    } else {
        f.regs[r.index()].clone()
    }
}

fn setr(f: &mut Frame, r: Reg, v: Lin) {
    if !r.is_zero() {
        f.regs[r.index()] = v;
    }
}

/// The affine bitwise complement: `!x = -x - 1` modulo 2^32.
fn lin_not(l: &Lin) -> Lin {
    l.scale(u32::MAX).add_const(u32::MAX)
}

fn overlap(a: u32, aw: u8, b: u32, bw: u8) -> bool {
    let (a, aw, b, bw) = (u64::from(a), u64::from(aw), u64::from(b), u64::from(bw));
    a < b + bw && b < a + aw
}

fn refuse<T>(r: Reason) -> Result<T, Unanalyzable> {
    Err(Unanalyzable(r))
}

/// Refusals a tolerant probe may step over (poisoning the loop's
/// write-set): data-shaped reasons that can dissolve once more
/// registers settle. Structural reasons (`dbnz`, ZOLC instructions,
/// faults, unstructured control, budget) always propagate.
fn probe_recoverable(r: Reason) -> bool {
    matches!(
        r,
        Reason::CounterEscape { .. }
            | Reason::DataDependentBranch { .. }
            | Reason::MemoryCarried { .. }
            | Reason::VariantAddress { .. }
            | Reason::VariantTripCount { .. }
            | Reason::ZeroTripLatch { .. }
    )
}

pub(crate) struct Analyzer<'p> {
    text: &'p [Instr],
    /// Recognized latches by loop-top address; `None` marks an
    /// ambiguous top (two latches share it).
    latches: HashMap<u32, Option<Latch>>,
    /// Concrete committed memory (the top level's working state).
    mem: Vec<u8>,
    /// Final value of every byte stored so far.
    touched: BTreeMap<u32, u8>,
    frames: Vec<Frame>,
    steps: u64,
}

impl<'p> Analyzer<'p> {
    pub(crate) fn new(program: &'p Program, regs: [u32; 32], mem: Vec<u8>) -> Analyzer<'p> {
        let text = program.text();
        let mut latches: HashMap<u32, Option<Latch>> = HashMap::new();
        for i in 0..text.len().saturating_sub(1) {
            let addi_pc = TEXT_BASE + 4 * i as u32;
            let Instr::Addi { rt, rs, imm: -1 } = text[i] else {
                continue;
            };
            if rt != rs || rt.is_zero() {
                continue;
            }
            let bne_pc = addi_pc + 4;
            let (a, b) = match text[i + 1] {
                Instr::Bne { rs: a, rt: b, .. } => (a, b),
                _ => continue,
            };
            if !((a == rt && b.is_zero()) || (b == rt && a.is_zero())) {
                continue;
            }
            let Some(top) = text[i + 1].branch_target(bne_pc) else {
                continue;
            };
            // A latch loops backward (or onto its own addi) and its top
            // must be fetchable text.
            let idx = top.wrapping_sub(TEXT_BASE) / 4;
            if top > addi_pc || !top.is_multiple_of(4) || idx as usize >= text.len() {
                continue;
            }
            let latch = Latch {
                top,
                addi_pc,
                bne_pc,
                counter: rt,
            };
            latches
                .entry(top)
                .and_modify(|e| *e = None)
                .or_insert(Some(latch));
        }
        let mut entry_known = regs.map(Some);
        entry_known[0] = Some(0);
        Analyzer {
            text,
            latches,
            mem,
            touched: BTreeMap::new(),
            frames: vec![Frame::new(None, entry_known, [false; 32])],
            steps: 0,
        }
    }

    pub(crate) fn run(mut self) -> Result<Summary, Unanalyzable> {
        let halt_pc = self.walk(TEXT_BASE)?;
        let top = &self.frames[0];
        let mut final_regs = [0u32; 32];
        for (out, l) in final_regs.iter_mut().zip(&top.regs).skip(1) {
            *out = resolve(top, l).expect("top-level values always resolve");
        }
        Ok(Summary {
            final_regs,
            final_pc: halt_pc,
            retired: top.retired,
            branches: top.branches,
            taken_branches: top.taken,
            touched_mem: self.touched.into_iter().collect(),
        })
    }

    fn fetch(&self, pc: u32) -> Result<Instr, Unanalyzable> {
        if !pc.is_multiple_of(4) {
            return refuse(Reason::FetchFault { pc });
        }
        let idx = pc.wrapping_sub(TEXT_BASE) / 4;
        match self.text.get(idx as usize) {
            Some(&i) => Ok(i),
            None => refuse(Reason::FetchFault { pc }),
        }
    }

    /// Syntactic write-set of the text range `[top, bne_pc]`.
    fn write_set(&self, top: u32, bne_pc: u32) -> [bool; 32] {
        let mut w = [false; 32];
        let lo = (top.wrapping_sub(TEXT_BASE) / 4) as usize;
        let hi = (bne_pc.wrapping_sub(TEXT_BASE) / 4) as usize;
        for i in lo..=hi.min(self.text.len().saturating_sub(1)) {
            if let Some(d) = self.text[i].dst() {
                w[d.index()] = true;
            }
        }
        w
    }

    /// Validates a taken control transfer from `pc` to `target` and
    /// returns the next pc. Loop frames admit only forward transfers
    /// within the body (or onto the latch `addi`); the top frame admits
    /// any forward transfer and backward transfers onto a recognized
    /// latch top (the dispatch loop then summarizes the loop).
    fn transfer(&self, pc: u32, target: u32) -> Result<u32, Unanalyzable> {
        match self.frames.last().expect("frame stack non-empty").latch {
            Some(l) => {
                if (target > pc && target < l.addi_pc) || target == l.addi_pc {
                    Ok(target)
                } else {
                    refuse(Reason::UnstructuredControl { pc })
                }
            }
            None => {
                if target > pc || self.latches.contains_key(&target) {
                    Ok(target)
                } else {
                    refuse(Reason::UnstructuredControl { pc })
                }
            }
        }
    }

    /// Loads `ext.width()` bytes at the concrete address `addr`,
    /// resolving store-to-load forwarding against this frame's and
    /// enclosing frames' pending events before falling back to the
    /// committed image.
    fn mem_load(&mut self, pc: u32, addr: u32, ext: Ext) -> Result<Lin, Unanalyzable> {
        let width = ext.width();
        if !addr.is_multiple_of(u32::from(width)) {
            return refuse(Reason::MemFault { pc });
        }
        if addr as usize + width as usize > self.mem.len() {
            return refuse(Reason::MemFault { pc });
        }
        let (cur, outers) = self.frames.split_last_mut().expect("frame stack non-empty");
        if cur.latch.is_some() {
            // Same-frame forwarding: the latest overlapping store wins.
            for e in cur.events.iter().rev() {
                let Evt::Store {
                    addr: sa,
                    width: sw,
                    value,
                    known,
                } = e
                else {
                    continue;
                };
                if !overlap(addr, width, *sa, *sw) {
                    continue;
                }
                if *sa == addr && *sw == width {
                    if let Ext::Word = ext {
                        return Ok(value.clone());
                    }
                    if let Some(k) = known {
                        return Ok(Lin::konst(ext.extend(*k)));
                    }
                }
                return refuse(Reason::MemoryCarried { pc });
            }
            // Enclosing frames' pending stores, nearest first; only
            // concretely known values may be forwarded across a frame
            // boundary (the bases differ).
            for f in outers.iter().rev() {
                for e in f.events.iter().rev() {
                    let Evt::Store {
                        addr: sa,
                        width: sw,
                        known,
                        ..
                    } = e
                    else {
                        continue;
                    };
                    if !overlap(addr, width, *sa, *sw) {
                        continue;
                    }
                    if *sa == addr && *sw == width {
                        if let Some(k) = known {
                            cur.events.push(Evt::Load { pc, addr, width });
                            return Ok(Lin::konst(ext.extend(*k)));
                        }
                    }
                    return refuse(Reason::MemoryCarried { pc });
                }
            }
            cur.events.push(Evt::Load { pc, addr, width });
        }
        let a = addr as usize;
        let mut raw = 0u32;
        for (i, &b) in self.mem[a..a + width as usize].iter().enumerate() {
            raw |= u32::from(b) << (8 * i);
        }
        Ok(Lin::konst(ext.extend(raw)))
    }

    /// Stores `width` low bytes of `value` at the concrete address
    /// `addr`: committed immediately at the top level, recorded as a
    /// pending event inside a loop frame.
    fn mem_store(&mut self, pc: u32, addr: u32, width: u8, value: Lin) -> Result<(), Unanalyzable> {
        if !addr.is_multiple_of(u32::from(width)) {
            return refuse(Reason::MemFault { pc });
        }
        if addr as usize + width as usize > self.mem.len() {
            return refuse(Reason::MemFault { pc });
        }
        let cur = self.frames.last_mut().expect("frame stack non-empty");
        if cur.latch.is_some() {
            let known = resolve(cur, &value);
            cur.events.push(Evt::Store {
                addr,
                width,
                value,
                known,
            });
        } else {
            let v = resolve(cur, &value).expect("top-level values always resolve");
            self.commit(addr, width, v);
        }
        Ok(())
    }

    fn commit(&mut self, addr: u32, width: u8, value: u32) {
        for i in 0..u32::from(width) {
            let b = (value >> (8 * i)) as u8;
            self.mem[(addr + i) as usize] = b;
            self.touched.insert(addr + i, b);
        }
    }

    /// Probe-mode load: reads the committed image only (which may be
    /// stale w.r.t. in-loop stores), ⊥ on anything the real walk would
    /// have to reason about — unresolved address, misalignment, or an
    /// out-of-range access.
    fn probe_load(&self, addr: Option<u32>, ext: Ext) -> Lin {
        let Some(addr) = addr else {
            return Lin::bot();
        };
        if !addr.is_multiple_of(u32::from(ext.width())) {
            return Lin::bot();
        }
        let a = addr as usize;
        let Some(bytes) = a
            .checked_add(usize::from(ext.width()))
            .and_then(|end| self.mem.get(a..end))
        else {
            return Lin::bot();
        };
        let mut raw = 0u32;
        for (i, &b) in bytes.iter().enumerate() {
            raw |= u32::from(b) << (8 * i);
        }
        Lin::konst(ext.extend(raw))
    }

    /// Walks one frame from `start` until its latch `addi` (loop
    /// frames) or `halt` (top frame), returning the terminal pc.
    fn walk(&mut self, start: u32) -> Result<u32, Unanalyzable> {
        let mut pc = start;
        loop {
            self.steps += 1;
            if self.steps > MAX_STEPS {
                return refuse(Reason::OutOfBudget { pc });
            }
            let own = self.frames.last().expect("frame stack non-empty").latch;
            if let Some(l) = own {
                if pc == l.addi_pc {
                    return Ok(pc);
                }
                if pc == l.bne_pc {
                    return refuse(Reason::UnstructuredControl { pc });
                }
            }
            // A recognized latch top (other than this frame's own entry
            // point) summarizes in place of walking.
            if own.is_none_or(|l| l.top != pc) {
                if let Some(entry) = self.latches.get(&pc) {
                    let Some(latch) = *entry else {
                        return refuse(Reason::UnstructuredControl { pc });
                    };
                    if let Some(l) = own {
                        if latch.bne_pc >= l.addi_pc {
                            return refuse(Reason::UnstructuredControl { pc });
                        }
                    }
                    if let Err(e) = self.enter_loop(latch) {
                        let cur = self.frames.last_mut().expect("frame stack non-empty");
                        if !(cur.tolerant && probe_recoverable(e.0)) {
                            return Err(e);
                        }
                        // Probe-through: a stuck inner loop poisons its
                        // write-set instead of killing the probe — the
                        // loop may resolve once more registers settle,
                        // and the real walks re-verify every claim.
                        let w = self.write_set(latch.top, latch.bne_pc);
                        let cur = self.frames.last_mut().expect("frame stack non-empty");
                        for (j, written) in w.iter().enumerate().skip(1) {
                            if *written {
                                cur.regs[j] = Lin::bot();
                            }
                        }
                    }
                    pc = latch.bne_pc.wrapping_add(4);
                    continue;
                }
            }
            let instr = self.fetch(pc)?;
            match self.exec(pc, instr)? {
                Some(next) => pc = next,
                // `halt` retired at the top level; its own pc is the
                // final pc (executors do not advance past a halt).
                None => return Ok(pc),
            }
        }
    }

    /// Executes one instruction symbolically; returns the next pc
    /// (`None` when a top-level `halt` retired), or refuses.
    #[allow(clippy::too_many_lines)]
    fn exec(&mut self, pc: u32, instr: Instr) -> Result<Option<u32>, Unanalyzable> {
        use Instr::*;
        let mut next = pc.wrapping_add(4);
        // Concrete two-operand helper for the non-affine ALU ops.
        macro_rules! conc {
            ($f:expr, $a:expr, $b:expr, $op:expr) => {{
                let (a, b) = ($a, $b);
                match (resolve($f, &a), resolve($f, &b)) {
                    (Some(a), Some(b)) =>
                    {
                        #[allow(clippy::redundant_closure_call)]
                        Lin::konst($op(a, b))
                    }
                    _ if $f.tolerant => Lin::bot(),
                    _ => return refuse(Reason::CounterEscape { pc }),
                }
            }};
        }
        {
            let f = self.frames.last_mut().expect("frame stack non-empty");
            match instr {
                Add { rd, rs, rt } => {
                    let v = src(f, rs).add(&src(f, rt));
                    setr(f, rd, v);
                }
                Sub { rd, rs, rt } => {
                    let v = src(f, rs).sub(&src(f, rt));
                    setr(f, rd, v);
                }
                Addi { rt, rs, imm } => {
                    let v = src(f, rs).add_const(imm as i32 as u32);
                    setr(f, rt, v);
                }
                Lui { rt, imm } => setr(f, rt, Lin::konst(u32::from(imm) << 16)),
                Sll { rd, rt, sh } => {
                    let v = src(f, rt).scale(1u32.wrapping_shl(u32::from(sh)));
                    setr(f, rd, v);
                }
                Sllv { rd, rt, rs } => {
                    let v = match resolve(f, &src(f, rs)) {
                        Some(k) => src(f, rt).scale(1u32 << (k & 31)),
                        None if f.tolerant => Lin::bot(),
                        None => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Mul { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = if let Some(k) = resolve(f, &b) {
                        a.scale(k)
                    } else if let Some(k) = resolve(f, &a) {
                        b.scale(k)
                    } else if f.tolerant {
                        Lin::bot()
                    } else {
                        return refuse(Reason::CounterEscape { pc });
                    };
                    setr(f, rd, v);
                }
                // The bitwise ops are concrete-only in general, but an
                // absorbing or neutral operand makes them exact on a
                // symbolic other operand: `x & 0`, `x | 0`, `x ^ 0`,
                // and the affine complement `!x = -x - 1` for
                // `x ^ !0` / `nor(x, 0)`.
                And { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(a & b),
                        (Some(0), _) | (_, Some(0)) => Lin::konst(0),
                        (Some(u32::MAX), _) => b,
                        (_, Some(u32::MAX)) => a,
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Or { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(a | b),
                        (Some(u32::MAX), _) | (_, Some(u32::MAX)) => Lin::konst(u32::MAX),
                        (Some(0), _) => b,
                        (_, Some(0)) => a,
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Xor { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(a ^ b),
                        (Some(0), _) => b,
                        (_, Some(0)) => a,
                        (Some(u32::MAX), _) => lin_not(&b),
                        (_, Some(u32::MAX)) => lin_not(&a),
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Nor { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(!(a | b)),
                        (Some(u32::MAX), _) | (_, Some(u32::MAX)) => Lin::konst(0),
                        (Some(0), _) => lin_not(&b),
                        (_, Some(0)) => lin_not(&a),
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Slt { rd, rs, rt } => {
                    let v = conc!(f, src(f, rs), src(f, rt), |a, b| u32::from(
                        (a as i32) < (b as i32)
                    ));
                    setr(f, rd, v);
                }
                Sltu { rd, rs, rt } => {
                    let v = conc!(f, src(f, rs), src(f, rt), |a: u32, b: u32| u32::from(a < b));
                    setr(f, rd, v);
                }
                Srlv { rd, rt, rs } => {
                    let (a, b) = (src(f, rt), src(f, rs));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(a >> (b & 31)),
                        (Some(0), _) => Lin::konst(0),
                        (_, Some(k)) if k & 31 == 0 => a,
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Srav { rd, rt, rs } => {
                    let (a, b) = (src(f, rt), src(f, rs));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => Lin::konst(((a as i32) >> (b & 31)) as u32),
                        (Some(0), _) => Lin::konst(0),
                        (Some(u32::MAX), _) => Lin::konst(u32::MAX),
                        (_, Some(k)) if k & 31 == 0 => a,
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Mulh { rd, rs, rt } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let v = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => {
                            Lin::konst(((i64::from(a as i32) * i64::from(b as i32)) >> 32) as u32)
                        }
                        (Some(0), _) | (_, Some(0)) => Lin::konst(0),
                        _ if f.tolerant => Lin::bot(),
                        _ => return refuse(Reason::CounterEscape { pc }),
                    };
                    setr(f, rd, v);
                }
                Srl { rd, rt, sh } => {
                    let v = if sh == 0 {
                        src(f, rt)
                    } else {
                        conc!(f, src(f, rt), Lin::konst(0), |a: u32, _| a
                            .wrapping_shr(u32::from(sh)))
                    };
                    setr(f, rd, v);
                }
                Sra { rd, rt, sh } => {
                    let v = if sh == 0 {
                        src(f, rt)
                    } else {
                        conc!(f, src(f, rt), Lin::konst(0), |a, _| (a as i32)
                            .wrapping_shr(u32::from(sh))
                            as u32)
                    };
                    setr(f, rd, v);
                }
                Slti { rt, rs, imm } => {
                    let v = conc!(f, src(f, rs), Lin::konst(0), |a, _| u32::from(
                        (a as i32) < i32::from(imm)
                    ));
                    setr(f, rt, v);
                }
                Sltiu { rt, rs, imm } => {
                    let v = conc!(f, src(f, rs), Lin::konst(0), |a: u32, _| u32::from(
                        a < (imm as i32 as u32)
                    ));
                    setr(f, rt, v);
                }
                Andi { rt, rs, imm } => {
                    let v = conc!(f, src(f, rs), Lin::konst(0), |a: u32, _| a & u32::from(imm));
                    setr(f, rt, v);
                }
                Ori { rt, rs, imm } => {
                    let v = conc!(f, src(f, rs), Lin::konst(0), |a: u32, _| a | u32::from(imm));
                    setr(f, rt, v);
                }
                Xori { rt, rs, imm } => {
                    let v = conc!(f, src(f, rs), Lin::konst(0), |a: u32, _| a ^ u32::from(imm));
                    setr(f, rt, v);
                }
                Lb { rt, rs, off }
                | Lbu { rt, rs, off }
                | Lh { rt, rs, off }
                | Lhu { rt, rs, off }
                | Lw { rt, rs, off } => {
                    let ext = match instr {
                        Lb { .. } => Ext::SignByte,
                        Lbu { .. } => Ext::ZeroByte,
                        Lh { .. } => Ext::SignHalf,
                        Lhu { .. } => Ext::ZeroHalf,
                        _ => Ext::Word,
                    };
                    let a = src(f, rs).add_const(off as i32 as u32);
                    let addr = resolve(f, &a);
                    let v = if f.tolerant {
                        // Probe reads go straight to the committed
                        // image (may be stale w.r.t. in-loop stores):
                        // any constancy derived from them is
                        // re-verified by the real steady-state walk.
                        self.probe_load(addr, ext)
                    } else {
                        let Some(addr) = addr else {
                            return refuse(Reason::VariantAddress { pc });
                        };
                        self.mem_load(pc, addr, ext)?
                    };
                    let f = self.frames.last_mut().expect("frame stack non-empty");
                    // A load to r0 still accesses memory (and can
                    // fault); only the write-back is discarded.
                    setr(f, rt, v);
                }
                Sb { rt, rs, off } | Sh { rt, rs, off } | Sw { rt, rs, off } => {
                    let width = match instr {
                        Sb { .. } => 1,
                        Sh { .. } => 2,
                        _ => 4,
                    };
                    if f.tolerant {
                        // Probe frames are discarded along with their
                        // events; stores contribute nothing to register
                        // constancy.
                    } else {
                        let a = src(f, rs).add_const(off as i32 as u32);
                        let Some(addr) = resolve(f, &a) else {
                            return refuse(Reason::VariantAddress { pc });
                        };
                        let value = src(f, rt);
                        self.mem_store(pc, addr, width, value)?;
                    }
                }
                Beq { rs, rt, .. } | Bne { rs, rt, .. } => {
                    let (a, b) = (src(f, rs), src(f, rt));
                    let taken = match (resolve(f, &a), resolve(f, &b)) {
                        (Some(a), Some(b)) => match instr {
                            Beq { .. } => a == b,
                            _ => a != b,
                        },
                        // Probe guess; a wrong guess only yields
                        // constancy claims the real walks then reject.
                        _ if f.tolerant => false,
                        _ => return refuse(Reason::DataDependentBranch { pc }),
                    };
                    f.branches += 1;
                    if taken {
                        f.taken += 1;
                        let target = instr.branch_target(pc).expect("branch has target");
                        next = self.transfer(pc, target)?;
                    }
                }
                Blez { rs, .. } | Bgtz { rs, .. } | Bltz { rs, .. } | Bgez { rs, .. } => {
                    let a = src(f, rs);
                    let taken = match resolve(f, &a) {
                        Some(v) => {
                            let v = v as i32;
                            match instr {
                                Blez { .. } => v <= 0,
                                Bgtz { .. } => v > 0,
                                Bltz { .. } => v < 0,
                                _ => v >= 0,
                            }
                        }
                        None if f.tolerant => false,
                        None => return refuse(Reason::DataDependentBranch { pc }),
                    };
                    f.branches += 1;
                    if taken {
                        f.taken += 1;
                        let target = instr.branch_target(pc).expect("branch has target");
                        next = self.transfer(pc, target)?;
                    }
                }
                J { target } => next = self.transfer(pc, target << 2)?,
                Jal { target } => {
                    setr(f, Reg::RA, Lin::konst(pc.wrapping_add(4)));
                    next = self.transfer(pc, target << 2)?;
                }
                Jr { rs } => {
                    let a = src(f, rs);
                    let Some(target) = resolve(f, &a) else {
                        return refuse(Reason::DataDependentBranch { pc });
                    };
                    next = self.transfer(pc, target)?;
                }
                Dbnz { .. } => return refuse(Reason::DbnzLatch { pc }),
                Zwr { .. } | Zctl { .. } => return refuse(Reason::ZolcInstr { pc }),
                Nop => {}
                Halt => {
                    let f = self.frames.last_mut().expect("frame stack non-empty");
                    if f.latch.is_some() {
                        return refuse(Reason::UnstructuredControl { pc });
                    }
                    f.retired += 1;
                    return Ok(None);
                }
            }
        }
        let f = self.frames.last_mut().expect("frame stack non-empty");
        f.retired += 1;
        Ok(Some(next))
    }

    /// Summarizes the counted loop at `latch` in the context of the
    /// current (parent) frame. The one-shot affine fold is attempted
    /// first; when it refuses for a reason stabilization can dissolve,
    /// a tolerant probe finds body registers that settle to
    /// iteration-independent constants, the settling prefix is peeled
    /// as real one-iteration folds, and the steady-state remainder
    /// folds affinely with the settled constants resolved. Every probe
    /// claim is re-verified by the real walks — the retry never trusts
    /// a guess, so a failed verification falls back to the original
    /// refusal.
    fn enter_loop(&mut self, latch: Latch) -> Result<(), Unanalyzable> {
        if self.frames.len() >= MAX_DEPTH {
            return refuse(Reason::OutOfBudget { pc: latch.top });
        }
        self.steps += 1;
        let parent = self.frames.last().expect("frame stack non-empty");
        let cnt = src(parent, latch.counter);
        let Some(n) = resolve(parent, &cnt) else {
            return refuse(Reason::VariantTripCount { pc: latch.top });
        };
        if n == 0 {
            return refuse(Reason::ZeroTripLatch { pc: latch.top });
        }
        let n = u64::from(n);
        if n == 1 {
            // A single-trip loop is straight-line code: fold it as one
            // peeled iteration in the parent's resolvable state.
            return self.fold_iterations(latch, 1, true, FoldMode::Peel);
        }
        let err = match self.fold_iterations(latch, n, true, FoldMode::Affine) {
            Ok(()) => return Ok(()),
            Err(e) => e,
        };
        let retryable = matches!(
            err.0,
            Reason::CounterEscape { .. }
                | Reason::DataDependentBranch { .. }
                | Reason::MemoryCarried { .. }
                | Reason::VariantAddress { .. }
        );
        if retryable && self.stabilized_retry(latch, n).is_ok() {
            return Ok(());
        }
        // A failed retry may have partially folded peeled iterations
        // into the parent; that is harmless, because this error aborts
        // the entire summarization.
        Err(err)
    }

    /// The stabilization retry: probe for settling registers, peel the
    /// settling prefix with real one-iteration folds, verify that the
    /// peeled prefix really establishes the settled constants (the base
    /// case), and fold the steady remainder (whose walk re-derives the
    /// constants: the induction step).
    fn stabilized_retry(&mut self, latch: Latch, n: u64) -> Result<(), Unanalyzable> {
        let mut stab = self
            .stabilize(latch)
            .ok_or(Unanalyzable(Reason::CounterEscape { pc: latch.top }))?;
        let peels = stab.rounds.min(n);
        for k in 1..=peels {
            self.fold_iterations(latch, 1, k == n, FoldMode::Peel)?;
        }
        if peels == n {
            return Ok(());
        }
        // The base case: after the peeled prefix, every settled register
        // must hold its claimed constant in the real parent state.
        // Identity rows fix their constant here — the probe only proved
        // the steady iterations leave them alone, not what they hold.
        let parent = self.frames.last().expect("frame stack non-empty");
        for j in 1..32 {
            if !stab.mask[j] {
                continue;
            }
            let got = resolve(parent, &parent.regs[j]);
            match stab.val[j] {
                Some(v) if got == Some(v) => {}
                None if got.is_some() => stab.val[j] = got,
                _ => return refuse(Reason::CounterEscape { pc: latch.top }),
            }
        }
        self.fold_iterations(latch, n - peels, true, FoldMode::Steady(&stab))
    }

    /// Runs tolerant probe walks of the body to find write-set
    /// registers that settle to iteration-independent constants,
    /// growing the settled set round by round (a register may need
    /// earlier ones settled first). `rounds` is the settling depth: the
    /// constants hold at the entry of every iteration after the first
    /// `rounds`. Returns `None` when nothing settles or the probe
    /// cannot complete a body walk.
    fn stabilize(&mut self, latch: Latch) -> Option<Stab> {
        const MAX_ROUNDS: u64 = 8;
        let w_full = self.write_set(latch.top, latch.bne_pc);
        let ci = latch.counter.index();
        let mut stab = Stab {
            mask: [false; 32],
            val: [None; 32],
            rounds: 0,
        };
        for round in 1..=MAX_ROUNDS {
            let parent = self.frames.last().expect("frame stack non-empty");
            let mut entry_known = [None; 32];
            entry_known[0] = Some(0);
            for (j, out) in entry_known.iter_mut().enumerate().skip(1) {
                *out = if stab.mask[j] {
                    stab.val[j]
                } else {
                    resolve(parent, &parent.regs[j])
                };
            }
            let mut w = w_full;
            for (wj, settled) in w.iter_mut().zip(&stab.mask) {
                if *settled {
                    *wj = false;
                }
            }
            let mut frame = Frame::new(Some(latch), entry_known, w);
            frame.tolerant = true;
            self.frames.push(frame);
            let walked = self.walk(latch.top);
            let child = self.frames.pop().expect("frame stack non-empty");
            if walked.is_err() || child.regs[ci] != Lin::var(ci) {
                return None;
            }
            let mut grew = false;
            for (j, &wj) in w.iter().enumerate().skip(1) {
                // Settled: the register's row resolves in the child
                // frame — it references only loop-invariant and
                // already-settled entries — so its value at every later
                // iteration entry is this same constant. An identity
                // row (a syntactic write that never changes the value)
                // settles too, at a value deferred to the base-case
                // check (its real post-peel parent value).
                if wj && j != ci {
                    if let Some(k) = resolve(&child, &child.regs[j]) {
                        stab.mask[j] = true;
                        stab.val[j] = Some(k);
                        grew = true;
                    } else if child.regs[j] == Lin::var(j) {
                        stab.mask[j] = true;
                        stab.val[j] = None;
                        grew = true;
                    }
                }
            }
            if !grew {
                return (stab.rounds > 0).then_some(stab);
            }
            stab.rounds = round;
        }
        Some(stab)
    }

    /// Folds `m` iterations of the loop at `latch` into the parent
    /// frame: walks the body once per the mode's register discipline,
    /// folds the per-iteration affine map over `m`, and applies the
    /// closed form to the parent's registers, counts and memory.
    /// `exits` says whether the final iteration's latch `bne` falls
    /// through (the loop is done) or is taken (peeled prefix).
    fn fold_iterations(
        &mut self,
        latch: Latch,
        m: u64,
        exits: bool,
        mode: FoldMode<'_>,
    ) -> Result<(), Unanalyzable> {
        let parent = self.frames.last().expect("frame stack non-empty");
        let mut entry_known = [None; 32];
        entry_known[0] = Some(0);
        for (out, l) in entry_known.iter_mut().zip(&parent.regs).skip(1) {
            *out = resolve(parent, l);
        }
        let mut w = match mode {
            // A peeled iteration runs in the parent's (resolvable)
            // entry state: nothing varies across its single trip.
            FoldMode::Peel => [false; 32],
            _ => self.write_set(latch.top, latch.bne_pc),
        };
        if let FoldMode::Steady(s) = mode {
            for j in 1..32 {
                if s.mask[j] {
                    w[j] = false;
                    entry_known[j] = s.val[j];
                }
            }
        }
        self.frames.push(Frame::new(Some(latch), entry_known, w));
        let walked = self.walk(latch.top);
        let child = self.frames.pop().expect("frame stack non-empty");
        walked?;

        let ci = latch.counter.index();
        if child.regs[ci] != Lin::var(ci) {
            return refuse(Reason::CounterMutation { pc: latch.addi_pc });
        }
        if let FoldMode::Steady(s) = mode {
            // Induction step of the stabilization argument: a steady
            // iteration entered with the settled constants must
            // reproduce them exactly, else the probe over-claimed.
            for j in 1..32 {
                if s.mask[j] && (s.val[j].is_none() || resolve(&child, &child.regs[j]) != s.val[j])
                {
                    return refuse(Reason::CounterEscape { pc: latch.top });
                }
            }
        }
        // The full-iteration map: the body's effect, then the latch
        // decrement (the `bne` writes nothing).
        let mut rows = child.regs.clone();
        rows[ci] = Lin::var(ci).add_const(u32::MAX);
        let (fin, last) = closed_form(&rows, m);

        // Iteration-uniform event counts (uniformity is guaranteed:
        // every branch outcome in the body resolved loop-invariantly).
        let over = || Unanalyzable(Reason::OutOfBudget { pc: latch.top });
        let retired = m
            .checked_mul(child.retired.checked_add(2).ok_or_else(over)?)
            .ok_or_else(over)?;
        let branches = m
            .checked_mul(child.branches.checked_add(1).ok_or_else(over)?)
            .ok_or_else(over)?;
        let taken = m
            .checked_mul(child.taken)
            .and_then(|t| t.checked_add(m - 1))
            .and_then(|t| t.checked_add(u64::from(!exits)))
            .ok_or_else(over)?;

        // A load that precedes an overlapping store in body order would
        // observe the *previous* iteration's store from the second
        // iteration on: a memory-carried dependence.
        if m > 1 {
            for (i, e) in child.events.iter().enumerate() {
                let Evt::Load { pc, addr, width } = e else {
                    continue;
                };
                for s in &child.events[i + 1..] {
                    if let Evt::Store {
                        addr: sa,
                        width: sw,
                        ..
                    } = s
                    {
                        if overlap(*addr, *width, *sa, *sw) {
                            return refuse(Reason::MemoryCarried { pc: *pc });
                        }
                    }
                }
            }
        }

        // Lift the loop's effects into the parent basis. Stores use the
        // last iteration's entry state (`last`): addresses are
        // loop-invariant, so the final iteration's write is the final
        // value.
        let parent = self.frames.last().expect("frame stack non-empty");
        let parent_regs = parent.regs.clone();
        let mut lifted: Vec<Evt> = Vec::with_capacity(child.events.len());
        for e in &child.events {
            match e {
                Evt::Store {
                    addr, width, value, ..
                } => {
                    let value = value.subst(&last).subst(&parent_regs);
                    let known = resolve(parent, &value);
                    lifted.push(Evt::Store {
                        addr: *addr,
                        width: *width,
                        value,
                        known,
                    });
                }
                Evt::Load { pc, addr, width } => lifted.push(Evt::Load {
                    pc: *pc,
                    addr: *addr,
                    width: *width,
                }),
            }
        }

        let parent = self.frames.last_mut().expect("frame stack non-empty");
        parent.retired = parent.retired.checked_add(retired).ok_or_else(over)?;
        parent.branches = parent.branches.checked_add(branches).ok_or_else(over)?;
        parent.taken = parent.taken.checked_add(taken).ok_or_else(over)?;
        for (out, l) in parent.regs.iter_mut().zip(&fin).skip(1) {
            *out = l.subst(&parent_regs);
        }
        if parent.latch.is_some() {
            parent.events.extend(lifted);
        } else {
            for e in lifted {
                if let Evt::Store {
                    addr, width, known, ..
                } = e
                {
                    let v = known.expect("top-level values always resolve");
                    self.commit(addr, width, v);
                }
            }
        }
        Ok(())
    }
}

/// Folds the per-iteration affine map `rows` over `n` iterations,
/// returning the final state `x_n` and the last iteration's entry
/// state `x_{n-1}`, both in the loop-entry basis. Exact modulo 2^32.
///
/// Splitting registers into the *active* set (those `rows` changes) and
/// the invariant rest gives `x' = A·x_active + u` with `u` affine over
/// invariants; then `x_n = Aⁿ·x_0 + Sₙ·u` with `Sₙ = Σ_{k<n} Aᵏ`,
/// computed by a doubling recurrence.
fn closed_form(rows: &[Lin], n: u64) -> (Vec<Lin>, Vec<Lin>) {
    let active: Vec<usize> = (1..32).filter(|&j| rows[j] != Lin::var(j)).collect();
    let identity: Vec<Lin> = (0..32).map(Lin::var).collect();
    if active.is_empty() {
        return (identity.clone(), identity);
    }
    let k = active.len();
    let mut a = vec![vec![0u32; k]; k];
    let mut u: Vec<Lin> = Vec::with_capacity(k);
    for (i, &j) in active.iter().enumerate() {
        let mut uj = rows[j].clone();
        for (i2, &j2) in active.iter().enumerate() {
            a[i][i2] = rows[j].coeffs[j2];
            uj.coeffs[j2] = 0;
        }
        u.push(uj);
    }
    let build = |an: &Mat, sn: &Mat| -> Vec<Lin> {
        let mut out = identity.clone();
        for (i, &j) in active.iter().enumerate() {
            let mut l = Lin::konst(0);
            for (i2, &j2) in active.iter().enumerate() {
                l.coeffs[j2] = an[i][i2];
            }
            for (i2, ui) in u.iter().enumerate() {
                if sn[i][i2] != 0 {
                    l = l.add(&ui.scale(sn[i][i2]));
                }
            }
            out[j] = l;
        }
        out
    };
    let (an, sn) = mat_powers(&a, n);
    let (an1, sn1) = if n == 1 {
        (mat_identity(k), vec![vec![0u32; k]; k])
    } else {
        mat_powers(&a, n - 1)
    };
    (build(&an, &sn), build(&an1, &sn1))
}

type Mat = Vec<Vec<u32>>;

fn mat_identity(k: usize) -> Mat {
    let mut m = vec![vec![0u32; k]; k];
    for (i, row) in m.iter_mut().enumerate() {
        row[i] = 1;
    }
    m
}

fn mat_mul(a: &Mat, b: &Mat) -> Mat {
    let k = a.len();
    let mut out = vec![vec![0u32; k]; k];
    for i in 0..k {
        for (j, &aij) in a[i].iter().enumerate() {
            if aij == 0 {
                continue;
            }
            for (c, o) in out[i].iter_mut().enumerate() {
                *o = o.wrapping_add(aij.wrapping_mul(b[j][c]));
            }
        }
    }
    out
}

fn mat_add(a: &Mat, b: &Mat) -> Mat {
    a.iter()
        .zip(b)
        .map(|(ra, rb)| {
            ra.iter()
                .zip(rb)
                .map(|(&x, &y)| x.wrapping_add(y))
                .collect()
        })
        .collect()
}

/// `(Aⁿ, Sₙ)` with `Sₙ = Σ_{k=0}^{n-1} Aᵏ`, for `n ≥ 1`.
fn mat_powers(a: &Mat, n: u64) -> (Mat, Mat) {
    if n == 1 {
        return (a.clone(), mat_identity(a.len()));
    }
    if n.is_multiple_of(2) {
        let (p, s) = mat_powers(a, n / 2);
        let s2 = mat_add(&s, &mat_mul(&p, &s));
        (mat_mul(&p, &p), s2)
    } else {
        let (p, s) = mat_powers(a, n - 1);
        let s2 = mat_add(&mat_identity(a.len()), &mat_mul(a, &s));
        (mat_mul(a, &p), s2)
    }
}

/// Summarizes `program` from a fresh session state: zeroed registers,
/// memory of `mem_size` bytes holding the text image at [`TEXT_BASE`]
/// and the data segment at [`DATA_BASE`] (exactly the state every
/// executor session starts from).
pub fn summarize(program: &Program, mem_size: usize) -> Result<Summary, Unanalyzable> {
    // Flat, not `zolc_sim::Memory`: the oracle shares no code with the simulator it checks.
    let mut mem = vec![0u8; mem_size];
    let text = program.text_bytes();
    let data = program.data();
    if TEXT_BASE as usize + text.len() > mem.len() || DATA_BASE as usize + data.len() > mem.len() {
        return refuse(Reason::MemFault { pc: TEXT_BASE });
    }
    mem[TEXT_BASE as usize..TEXT_BASE as usize + text.len()].copy_from_slice(&text);
    mem[DATA_BASE as usize..DATA_BASE as usize + data.len()].copy_from_slice(data);
    summarize_state(program, [0; 32], &mem)
}

/// Summarizes `program` from an explicit machine state: register
/// snapshot plus the full memory image (which must already contain the
/// text and data segments, as a running session's memory does).
/// Execution is taken to start at [`TEXT_BASE`].
pub fn summarize_state(
    program: &Program,
    regs: [u32; 32],
    mem: &[u8],
) -> Result<Summary, Unanalyzable> {
    Analyzer::new(program, regs, mem.to_vec()).run()
}
