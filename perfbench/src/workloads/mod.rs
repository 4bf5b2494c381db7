//! The four workloads. Each derives every input from [`Params::seed`],
//! sets up [`SETUPS`] times (reporting the median), measures for
//! [`Params::seconds`] and checks every output it measures.

pub mod corpus;
pub mod e7;
pub mod fig2;
pub mod zolcd;

use crate::calib::HostSpeed;
use crate::report::{median, Outcome};
use std::time::{Duration, Instant};

/// How many times a run sets up; `setup_s` is the median.
pub const SETUPS: usize = 5;

/// The workload names, in `BENCHMARK.json` order.
pub const NAMES: [&str; 4] = ["e7_sweep", "fig2_kernels", "corpus_zolcc", "zolcd_mixed"];

/// Run parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Input seed.
    pub seed: u64,
    /// Measured time.
    pub seconds: f64,
    /// Record spans and counters (the per-layer run).
    pub trace: bool,
    /// Tiny inputs and at least one op, for fast failure in tests.
    pub smoke: bool,
}

impl Params {
    /// The measured-phase deadline counted from now.
    pub fn deadline(&self) -> Instant {
        Instant::now() + Duration::from_secs_f64(self.seconds)
    }

    /// `full` normally, `smoke` in smoke mode.
    pub fn size(&self, full: usize, smoke: usize) -> usize {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name.
pub fn run(name: &str, p: &Params) -> Result<Outcome, String> {
    match name {
        "e7_sweep" => Ok(e7::run(p)),
        "fig2_kernels" => Ok(fig2::run(p)),
        "corpus_zolcc" => Ok(corpus::run(p)),
        "zolcd_mixed" => Ok(zolcd::run(p)),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            NAMES.join(", ")
        )),
    }
}

/// Runs `setup` [`SETUPS`] times (once in smoke mode) and returns the
/// last result with the median duration in reference seconds (see
/// [`HostSpeed`]).
pub fn repeated_setup<T>(p: &Params, mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut host = HostSpeed::new(1);
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..p.size(SETUPS, 1) {
        let t = Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64() * host.factor());
    }
    (last.expect("at least one setup"), median(&times))
}

/// Op time of traced and of plain ops, for the accounted wall time of a
/// traced run and its tracing overhead.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Split {
    traced: (u64, u64),
    plain: (u64, u64),
}

impl Split {
    /// Adds one op (or a batch of `ops` ops) that took `ns`.
    pub fn add(&mut self, traced: bool, ns: u64, ops: u64) {
        let slot = if traced {
            &mut self.traced
        } else {
            &mut self.plain
        };
        slot.0 += ns;
        slot.1 += ops;
    }

    /// Time of the traced ops.
    pub fn traced_ns(&self) -> u64 {
        self.traced.0
    }

    /// How much slower a traced op was than a plain one, percent (0
    /// without both kinds).
    pub fn overhead_pct(&self) -> f64 {
        let mean = |(ns, n): (u64, u64)| ns as f64 / n as f64;
        if self.traced.1 == 0 || self.plain.1 == 0 {
            return 0.0;
        }
        100.0 * (mean(self.traced) / mean(self.plain) - 1.0)
    }
}

/// A deterministic permutation of `0..n` from `seed` (xorshift-driven
/// Fisher–Yates).
pub fn shuffled(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = zolc_kernels::Xorshift::new(seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut v: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.below(i as u32 + 1) as usize;
        v.swap(i, j);
    }
    v
}

/// The message of a caught panic.
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|s| (*s).to_owned())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".into())
}
