//! The immutable, shareable side of an executor: [`CompiledProgram`].
//!
//! The session redesign splits what used to be one mutable core into
//! two halves with very different lifetimes:
//!
//! * [`CompiledProgram`] — everything derived from the program bytes
//!   and nothing else: the predecoded [`TextImage`], the encoded text
//!   bytes (sessions copy them into simulated memory), the basic-block
//!   table of the compiled tier and the nest-superblock table of the
//!   nest tier. It is `Arc`-shared, so one compile serves any number of
//!   concurrent sessions — the daemon's whole reason to exist.
//! * a **session** (one of [`Cpu`](crate::Cpu),
//!   [`FunctionalCpu`](crate::FunctionalCpu),
//!   [`CompiledCpu`](crate::CompiledCpu),
//!   [`NestCpu`](crate::NestCpu), created through
//!   [`ExecutorKind::new_session`](crate::ExecutorKind::new_session))
//!   — the cheap per-run half: registers, data memory, pc, statistics.
//!
//! # The compile tables
//!
//! Like the paper's controller, whose loop tables are written once at
//! initialization and only read at fetch time, each compiled tier keeps
//! a **write-once table** with one slot per text instruction. A slot is
//! filled the first time execution enters its pc — by exactly one
//! session, while any racing session waits for that result — and is
//! read without a lock from then on. The text length bounds the entry
//! count, so nothing is ever evicted.
//! [`CompiledProgram::cache_stats`] and
//! [`CompiledProgram::nest_cache_stats`] count the filled slots.

use crate::blocks::{compile, Block};
use crate::cpu::RunError;
use crate::exec::TextImage;
use crate::nest::NestEntry;
use std::sync::{Arc, OnceLock};
use zolc_isa::{Program, TEXT_BASE};

/// One lazily compiled entry per text instruction. The slots hold a
/// `Box` so a slot stays pointer-sized however large `T` is.
type CompileTable<T> = Box<[OnceLock<Box<T>>]>;

fn compile_table<T>(len: usize) -> CompileTable<T> {
    (0..len).map(|_| OnceLock::new()).collect()
}

fn compiled<T>(table: &CompileTable<T>) -> usize {
    table.iter().filter(|slot| slot.get().is_some()).count()
}

/// An immutable, `Arc`-shareable compiled program: the predecoded text
/// image plus the write-once basic-block and nest-superblock tables
/// (see the module docs).
///
/// Compile once, then open any number of concurrent sessions against
/// it:
///
/// ```
/// use zolc_sim::{run_session, CompiledProgram, ExecutorKind, NullEngine};
///
/// let program = zolc_isa::assemble("
///     li   r1, 100
///     li   r2, 0
/// top: add  r2, r2, r1
///     addi r1, r1, -1
///     bne  r1, r0, top
///     halt
/// ").unwrap();
/// let prog = CompiledProgram::compile(program);
/// for kind in ExecutorKind::ALL {
///     let f = run_session(kind, &prog, &mut NullEngine, 1_000_000)?;
///     assert_eq!(f.cpu.regs().read(zolc_isa::reg(2)), (1..=100).sum::<u32>());
/// }
/// # Ok::<(), zolc_sim::RunError>(())
/// ```
#[derive(Debug)]
pub struct CompiledProgram {
    source: Arc<Program>,
    text: TextImage,
    text_bytes: Vec<u8>,
    blocks: CompileTable<Block>,
    nests: CompileTable<NestEntry>,
}

impl CompiledProgram {
    /// Predecodes `program` into a shareable compiled form. Accepts an
    /// owned [`Program`] or an `Arc<Program>` (shared without copying).
    pub fn compile(program: impl Into<Arc<Program>>) -> Arc<CompiledProgram> {
        let source = program.into();
        let text = TextImage::new(&source);
        let text_bytes = source.text_bytes();
        Arc::new(CompiledProgram {
            blocks: compile_table(text.len()),
            nests: compile_table(text.len()),
            source,
            text,
            text_bytes,
        })
    }

    /// The source program this was compiled from.
    pub fn source(&self) -> &Arc<Program> {
        &self.source
    }

    /// The predecoded text segment.
    pub fn text(&self) -> &TextImage {
        &self.text
    }

    /// The encoded text bytes (what sessions copy to [`zolc_isa::TEXT_BASE`]).
    pub(crate) fn text_bytes(&self) -> &[u8] {
        &self.text_bytes
    }

    /// Number of basic blocks compiled so far.
    pub fn cache_stats(&self) -> usize {
        compiled(&self.blocks)
    }

    /// Number of nest-superblock entries compiled so far, including
    /// entry pcs found unable to start a superblock.
    pub fn nest_cache_stats(&self) -> usize {
        compiled(&self.nests)
    }

    /// Dense per-instruction index for `pc`, or the architectural fetch
    /// fault when `pc` is misaligned or outside text — the table index
    /// fails exactly when [`TextImage::fetch`] does.
    fn index(&self, pc: u32) -> Result<usize, RunError> {
        let idx = (pc.wrapping_sub(TEXT_BASE) / 4) as usize;
        if pc.is_multiple_of(4) && idx < self.text.len() {
            return Ok(idx);
        }
        let e = self
            .text
            .fetch(pc)
            .expect_err("table index and fetch agree");
        Err(RunError::from_fetch(e, pc))
    }

    /// The compiled block entered at `pc` (compiling on first use).
    pub(crate) fn block_at(&self, pc: u32) -> Result<&Block, RunError> {
        let slot = &self.blocks[self.index(pc)?];
        Ok(slot.get_or_init(|| Box::new(compile(&self.text, pc))))
    }

    /// The nest-superblock entry at `pc` (compiling on first use;
    /// negative results — regions not worth a superblock — are kept
    /// too, as [`NestEntry::Step`]).
    pub(crate) fn nest_at(&self, pc: u32) -> Result<&NestEntry, RunError> {
        let slot = &self.nests[self.index(pc)?];
        Ok(slot.get_or_init(|| Box::new(crate::nest::compile_nest(&self.text, pc))))
    }
}
