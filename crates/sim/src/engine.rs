//! The [`LoopEngine`] trait: how a loop controller plugs into the pipeline.
//!
//! Paper Fig. 1 connects the ZOLC to three points of the processor: the
//! *PC decode* unit (task-end detection and next-PC selection), the
//! *instruction decoder* (the `zwr`/`zctl` initialization instructions) and
//! the *register file* (the index calculation unit's dedicated write port).
//! `LoopEngine` exposes exactly those integration points:
//!
//! * [`LoopEngine::on_fetch`] — called for every instruction fetch; the
//!   engine may **redirect the next fetch** (zero-overhead task switch) and
//!   attach a **register write rider** to the fetched instruction (the
//!   index-register update, which then flows through the pipeline and is
//!   forwardable like any result).
//! * [`LoopEngine::on_execute`] — called when an instruction *retires* in
//!   EX (it can no longer be squashed); the engine commits architectural
//!   loop state here and handles registered exit branches.
//! * [`LoopEngine::exec_zwr`] / [`LoopEngine::exec_zctl`] — execution of
//!   the ZOLC coprocessor instructions.
//! * [`LoopEngine::on_flush`] — any pipeline flush; fetch-time decisions
//!   made for squashed instructions must be rolled back (speculative state
//!   returns to architectural state).
//!
//! # Trigger sets
//!
//! The paper's controller is zero-overhead because it acts only where
//! its PC-decode comparators match — task ends, multiple-entry addresses
//! and registered exit branches; everywhere else fetch ignores it.
//! [`LoopEngine::triggers`] exposes that set: the pcs at which the engine
//! can act, valid until the next [`LoopEngine::exec_zwr`] or
//! [`LoopEngine::exec_zctl`]. Every executor consults the engine only at
//! those pcs — the pipeline and the step core skip `on_fetch` and
//! `on_execute` elsewhere, and the nest tier runs superblocks that end at
//! trigger pcs — so an active controller costs host time only where the
//! hardware's comparators would fire. Architectural results, cycle
//! counts, [`Stats`](crate::Stats) and engine state are the same as with
//! every hook called. An engine that returns `None` (the default) is
//! consulted at every instruction, exactly as before the interface
//! existed.

use zolc_isa::{Reg, ZolcCtl, ZolcRegion};

/// A small fixed-capacity set of register writes riding on one instruction.
///
/// When several nested loops finish on the same instruction (the paper's
/// "successive last iterations ... in a single cycle" behaviour), the index
/// calculation unit updates several index registers at one task boundary;
/// the capacity equals the maximum loop nesting depth of the largest ZOLC
/// configuration (8).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegWrites {
    len: u8,
    items: [(Reg, u32); 8],
}

impl RegWrites {
    /// No writes.
    pub fn new() -> RegWrites {
        RegWrites::default()
    }

    /// Adds a write. Writes apply in insertion order (a later write to the
    /// same register wins).
    ///
    /// # Panics
    ///
    /// Panics if more than 8 writes are added.
    pub fn push(&mut self, reg: Reg, value: u32) {
        assert!(
            (self.len as usize) < self.items.len(),
            "too many rider writes"
        );
        self.items[self.len as usize] = (reg, value);
        self.len += 1;
    }

    /// Number of writes.
    pub fn len(&self) -> usize {
        usize::from(self.len)
    }

    /// Whether there are no writes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates over the writes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (Reg, u32)> + '_ {
        self.items[..self.len as usize].iter().copied()
    }

    /// The value written to `r`, if any (last write wins).
    pub fn value_for(&self, r: Reg) -> Option<u32> {
        self.items[..self.len as usize]
            .iter()
            .rev()
            .find(|(reg, _)| *reg == r)
            .map(|(_, v)| *v)
    }
}

/// What the engine decided at instruction fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FetchDecision {
    /// Override for the *next* fetch address (instead of `pc + 4`).
    ///
    /// This is the zero-overhead redirect: it costs no bubble because it is
    /// known combinationally while the current instruction is fetched.
    pub redirect: Option<u32>,
    /// Register writes attached to the fetched instruction (the index
    /// calculation unit's dedicated register-file port). The writes commit
    /// when the instruction retires and are forwardable from then on; they
    /// die with the instruction if the instruction is squashed.
    pub index_writes: RegWrites,
}

impl FetchDecision {
    /// The default decision: fall through, no register writes.
    pub fn none() -> FetchDecision {
        FetchDecision::default()
    }
}

/// What happened when an instruction retired in EX.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// An ordinary instruction (or an untaken branch's fall-through side
    /// effect already folded in).
    Plain,
    /// A control-flow instruction that redirected the PC to `target`.
    Taken {
        /// Byte address execution continues at.
        target: u32,
    },
    /// A conditional branch that fell through.
    NotTaken,
}

/// A loop controller attached to the pipeline.
///
/// All methods have no-op defaults so simple engines only override what
/// they need; [`NullEngine`] overrides nothing and models the plain
/// `XRdefault`/`XRhrdwil` cores (which have no loop controller).
pub trait LoopEngine {
    /// Observe the fetch of the instruction at `pc`; optionally redirect
    /// the next fetch and/or attach an index-register write.
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        let _ = pc;
        FetchDecision::none()
    }

    /// Observe an instruction retiring in EX (no longer squashable).
    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        let _ = (pc, event);
    }

    /// Execute a `zwr` table write (value already read from the register
    /// file with normal forwarding).
    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        let _ = (region, index, field, value);
    }

    /// Execute a `zctl` control operation. The pipeline issues a
    /// context-synchronizing flush after it, so state changes become
    /// visible to the very next fetch.
    fn exec_zctl(&mut self, op: ZolcCtl) {
        let _ = op;
    }

    /// A pipeline flush occurred: any speculative fetch-time state must be
    /// rolled back to the architectural state.
    fn on_flush(&mut self) {}

    /// Whether every hook of this engine is a no-op.
    ///
    /// A passive engine never redirects, never attaches index writes and
    /// keeps no state, so executors may skip its hooks entirely on hot
    /// paths (the functional executor does). Defaults to `false`; only
    /// return `true` when *all* hooks are behaviorally no-ops for the
    /// whole run. An engine with an empty [`LoopEngine::triggers`] set is
    /// not passive by that token: a `zctl` can give it triggers.
    fn is_passive(&self) -> bool {
        false
    }

    /// The pcs at which this engine can act, sorted and deduplicated, or
    /// `None` (the default) for "may act at any pc".
    ///
    /// The contract, at every pc outside the set:
    ///
    /// * `on_fetch` returns [`FetchDecision::none`] and changes no state;
    /// * `on_execute` changes no state, whatever the event;
    /// * `on_flush` stays idempotent: any number of calls with no other
    ///   hook in between has the effect of one. Under the functional
    ///   tiers' strict alternation it is a no-op unless an earlier
    ///   `on_execute` at a trigger pc left a flush pending, so the nest
    ///   tier issues one `on_flush` when it leaves a superblock in which
    ///   a flushing transfer retired.
    ///
    /// The set stays valid until the next [`LoopEngine::exec_zwr`] or
    /// [`LoopEngine::exec_zctl`]; executors re-read it right after each.
    fn triggers(&self) -> Option<&[u32]> {
        None
    }
}

/// The engine of a core without any loop controller.
///
/// ZOLC instructions executed against it are ignored (our code generators
/// never emit them for the baseline configurations).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullEngine;

impl LoopEngine for NullEngine {
    fn is_passive(&self) -> bool {
        true
    }

    fn triggers(&self) -> Option<&[u32]> {
        Some(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_engine_never_redirects() {
        let mut e = NullEngine;
        assert_eq!(e.on_fetch(0x100), FetchDecision::none());
        e.on_execute(0x100, ExecEvent::Plain);
        e.on_flush();
        e.exec_zctl(ZolcCtl::Reset);
        e.exec_zwr(ZolcRegion::Loop, 0, 0, 7);
    }

    #[test]
    fn only_null_engine_is_passive() {
        assert!(NullEngine.is_passive());
        struct Custom;
        impl LoopEngine for Custom {}
        assert!(!Custom.is_passive());
    }

    #[test]
    fn engines_act_anywhere_unless_they_publish_triggers() {
        struct Custom;
        impl LoopEngine for Custom {}
        assert_eq!(Custom.triggers(), None);
        assert_eq!(NullEngine.triggers(), Some(&[][..]));
    }

    #[test]
    fn fetch_decision_default_is_empty() {
        let d = FetchDecision::none();
        assert!(d.redirect.is_none());
        assert!(d.index_writes.is_empty());
    }
}
