//! A delegating [`LoopEngine`] that counts (and optionally times) every
//! controller hook.
//!
//! The traced run wraps the engine of each simulated run in a
//! [`CountingEngine`]; the untraced run never does. The wrapper forwards
//! every hook unchanged — including [`LoopEngine::is_passive`], so an
//! executor takes the same path with or without it — and only adds
//! counting, which `tests/engine_equiv.rs` pins.

use std::time::Instant;
use zolc_isa::{ZolcCtl, ZolcRegion};
use zolc_sim::{ExecEvent, FetchDecision, LoopEngine};

/// Hook counts of one or more runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HookCounts {
    /// `on_fetch` calls.
    pub fetch: u64,
    /// `on_execute` calls.
    pub execute: u64,
    /// Fetch decisions that redirected the next fetch.
    pub redirects: u64,
    /// `exec_zwr` calls.
    pub zwr: u64,
    /// `exec_zctl` calls.
    pub zctl: u64,
    /// `on_flush` calls.
    pub flushes: u64,
    /// Time spent inside the wrapped hooks, nanoseconds (timed wrappers
    /// only; includes the clock reads).
    pub hook_ns: u64,
}

impl HookCounts {
    /// All hook calls.
    pub fn calls(&self) -> u64 {
        self.fetch + self.execute + self.zwr + self.zctl + self.flushes
    }

    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &HookCounts) {
        self.fetch += other.fetch;
        self.execute += other.execute;
        self.redirects += other.redirects;
        self.zwr += other.zwr;
        self.zctl += other.zctl;
        self.flushes += other.flushes;
        self.hook_ns += other.hook_ns;
    }
}

/// Wraps an engine, counting each hook (see the module docs).
pub struct CountingEngine<'a> {
    inner: &'a mut dyn LoopEngine,
    timed: bool,
    /// What has been counted so far.
    pub counts: HookCounts,
}

impl<'a> CountingEngine<'a> {
    /// Wraps `inner`; with `timed` each hook call is also timed.
    pub fn new(inner: &'a mut dyn LoopEngine, timed: bool) -> CountingEngine<'a> {
        CountingEngine {
            inner,
            timed,
            counts: HookCounts::default(),
        }
    }

    fn call<T>(&mut self, f: impl FnOnce(&mut dyn LoopEngine) -> T) -> T {
        if !self.timed {
            return f(&mut *self.inner);
        }
        let t = Instant::now();
        let out = f(&mut *self.inner);
        self.counts.hook_ns += t.elapsed().as_nanos() as u64;
        out
    }
}

impl LoopEngine for CountingEngine<'_> {
    fn on_fetch(&mut self, pc: u32) -> FetchDecision {
        self.counts.fetch += 1;
        let d = self.call(|e| e.on_fetch(pc));
        self.counts.redirects += u64::from(d.redirect.is_some());
        d
    }

    fn on_execute(&mut self, pc: u32, event: ExecEvent) {
        self.counts.execute += 1;
        self.call(|e| e.on_execute(pc, event));
    }

    fn exec_zwr(&mut self, region: ZolcRegion, index: u8, field: u8, value: u32) {
        self.counts.zwr += 1;
        self.call(|e| e.exec_zwr(region, index, field, value));
    }

    fn exec_zctl(&mut self, op: ZolcCtl) {
        self.counts.zctl += 1;
        self.call(|e| e.exec_zctl(op));
    }

    fn on_flush(&mut self) {
        self.counts.flushes += 1;
        self.call(|e| e.on_flush());
    }

    fn is_passive(&self) -> bool {
        self.inner.is_passive()
    }
}

/// Mean cost of one timed hook call's clock reads with an empty body,
/// nanoseconds — subtracted from [`HookCounts::hook_ns`] to estimate the
/// hooks' own time.
pub fn clock_overhead_ns() -> f64 {
    struct Empty;
    impl LoopEngine for Empty {}
    let mut inner = Empty;
    let mut e = CountingEngine::new(&mut inner, true);
    const N: u64 = 200_000;
    for pc in 0..N {
        e.on_flush();
        std::hint::black_box(pc);
    }
    e.counts.hook_ns as f64 / N as f64
}
