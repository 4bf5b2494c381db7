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
//!
//! # Trigger tables
//!
//! An engine's trigger set ([`LoopEngine::triggers`]) decides where the
//! executors consult it. The program keeps one **trigger table** per
//! distinct set it has seen: a text-indexed map of the set's pcs plus a
//! write-once nest table whose superblocks end before every trigger pc.
//! Every session that presents an equal set shares the table. The empty
//! set's table always exists — its nest table is the one passive
//! engines run on — and at most [`CompiledProgram::TRIGGER_TABLES`]
//! more are made, so a client program that keeps rewriting its loop
//! addresses cannot grow the program without bound: past the cap, a
//! session calls every hook on the step core until its engine presents
//! a set that has a table again. [`CompiledProgram::trigger_cache_stats`]
//! reports them.
//!
//! [`LoopEngine::triggers`]: crate::LoopEngine::triggers

use crate::blocks::{compile, Block};
use crate::cpu::RunError;
use crate::exec::TextImage;
use crate::nest::{compile_nest, NestEntry};
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

/// Which of its program's trigger tables a session filters its engine
/// hooks through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Filter {
    /// Call every hook: the engine publishes no trigger set, or the
    /// program's table list is full.
    All,
    /// The program's trigger table at this index (0 is the empty set).
    Table(usize),
}

/// One trigger set compiled against the text (see the module docs).
#[derive(Debug)]
pub(crate) struct TriggerTable {
    pcs: Box<[u32]>,
    /// Per text instruction: whether its pc is in the set.
    hits: Box<[bool]>,
    nests: CompileTable<NestEntry>,
}

impl TriggerTable {
    fn new(text: &TextImage, pcs: &[u32]) -> TriggerTable {
        debug_assert!(
            pcs.windows(2).all(|w| w[0] < w[1]),
            "trigger sets are sorted and deduplicated"
        );
        let mut hits = vec![false; text.len()];
        for &pc in pcs {
            if let Some(hit) = text_index(pc).and_then(|idx| hits.get_mut(idx)) {
                *hit = true;
            }
        }
        TriggerTable {
            pcs: pcs.into(),
            hits: hits.into_boxed_slice(),
            nests: compile_table(text.len()),
        }
    }

    /// Whether the engine may act at `pc`. True outside the text too:
    /// no executor fetches there without faulting, and answering "yes"
    /// is always safe.
    pub(crate) fn is_trigger(&self, pc: u32) -> bool {
        text_index(pc).and_then(|idx| self.hits.get(idx).copied()) != Some(false)
    }
}

/// The text index of an aligned `pc`, unchecked against the text length.
fn text_index(pc: u32) -> Option<usize> {
    let off = pc.wrapping_sub(TEXT_BASE);
    off.is_multiple_of(4).then_some((off / 4) as usize)
}

/// What a program's trigger tables hold (see
/// [`CompiledProgram::trigger_cache_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TriggerCacheStats {
    /// Non-empty trigger sets with a table, at most
    /// [`CompiledProgram::TRIGGER_TABLES`].
    pub tables: usize,
    /// Superblocks compiled in those tables (entries found unable to
    /// start one are not counted).
    pub superblocks: usize,
}

/// An immutable, `Arc`-shareable compiled program: the predecoded text
/// image plus the write-once basic-block, nest-superblock and trigger
/// tables (see the module docs).
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
    /// Slot 0 holds the empty set's table; the others fill on demand.
    triggers: Box<[OnceLock<TriggerTable>]>,
}

impl CompiledProgram {
    /// Most non-empty trigger sets one program keeps a table for (see
    /// the module docs).
    pub const TRIGGER_TABLES: usize = 4;

    /// Predecodes `program` into a shareable compiled form. Accepts an
    /// owned [`Program`] or an `Arc<Program>` (shared without copying).
    pub fn compile(program: impl Into<Arc<Program>>) -> Arc<CompiledProgram> {
        let source = program.into();
        let text = TextImage::new(&source);
        let text_bytes = source.text_bytes();
        let triggers = std::iter::once(OnceLock::from(TriggerTable::new(&text, &[])))
            .chain((0..Self::TRIGGER_TABLES).map(|_| OnceLock::new()))
            .collect();
        Arc::new(CompiledProgram {
            blocks: compile_table(text.len()),
            triggers,
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

    /// Number of nest-superblock entries compiled so far for engines
    /// with an empty trigger set (passive engines, controllers not yet
    /// active), including entry pcs found unable to start a superblock.
    pub fn nest_cache_stats(&self) -> usize {
        compiled(&self.table(0).nests)
    }

    /// The trigger tables made so far for non-empty trigger sets, and
    /// the superblocks compiled in them.
    pub fn trigger_cache_stats(&self) -> TriggerCacheStats {
        let mut stats = TriggerCacheStats::default();
        for table in self.triggers[1..].iter().filter_map(OnceLock::get) {
            stats.tables += 1;
            stats.superblocks += table
                .nests
                .iter()
                .filter(|slot| matches!(slot.get().map(|e| &**e), Some(NestEntry::Sb(_))))
                .count();
        }
        stats
    }

    /// The trigger table at index `i` of a [`Filter::Table`].
    pub(crate) fn table(&self, i: usize) -> &TriggerTable {
        self.triggers[i]
            .get()
            .expect("a session only selects filled trigger tables")
    }

    /// The filter for an engine that presents `triggers`: `current` when
    /// it already matches, else the table of an equal set, made if the
    /// cap allows; [`Filter::All`] for `None` or past the cap.
    pub(crate) fn filter(&self, current: Filter, triggers: Option<&[u32]>) -> Filter {
        let Some(pcs) = triggers else {
            return Filter::All;
        };
        if let Filter::Table(i) = current {
            if *self.table(i).pcs == *pcs {
                return current;
            }
        }
        self.triggers
            .iter()
            .position(|slot| *slot.get_or_init(|| TriggerTable::new(&self.text, pcs)).pcs == *pcs)
            .map_or(Filter::All, Filter::Table)
    }

    /// Whether a session under `filter` must call the engine's
    /// `on_fetch`/`on_execute` at `pc`.
    pub(crate) fn hooks_at(&self, filter: Filter, pc: u32) -> bool {
        match filter {
            Filter::All => true,
            Filter::Table(i) => self.table(i).is_trigger(pc),
        }
    }

    /// Dense per-instruction index for `pc`, or the architectural fetch
    /// fault when `pc` is misaligned or outside text — the table index
    /// fails exactly when [`TextImage::fetch`] does.
    fn index(&self, pc: u32) -> Result<usize, RunError> {
        if let Some(idx) = text_index(pc).filter(|&idx| idx < self.text.len()) {
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

    /// The nest-superblock entry at `pc` in trigger table `table`
    /// (compiling on first use; negative results — regions not worth a
    /// superblock, trigger pcs — are kept too, as [`NestEntry::Step`]).
    pub(crate) fn nest_at(&self, table: usize, pc: u32) -> Result<&NestEntry, RunError> {
        let table = self.table(table);
        let slot = &table.nests[self.index(pc)?];
        Ok(slot.get_or_init(|| Box::new(compile_nest(&self.text, pc, table))))
    }
}
