//! Host-speed calibration.
//!
//! On a shared host the speed of one core drifts by tens of percent over
//! seconds, as other tenants come and go. The CPU-bound workloads
//! therefore interleave a fixed reference kernel owned by the benchmark
//! (nothing under test runs in it) with their ops and scale each op's
//! time by `REFERENCE_NS / kernel time`, the kernel time being the
//! median of its last three samples. A time reported this way reads as
//! the time on a host where the kernel takes [`REFERENCE_NS`]; a change
//! to the toolchain moves it exactly as it moves wall time, while a slow
//! phase of the host moves the kernel too and cancels out.

use std::time::Instant;

/// Kernel time on the reference host, nanoseconds.
pub const REFERENCE_NS: f64 = 250_000.0;

/// Bytes the kernel allocates and touches: one session's memory
/// (`DATA_BASE` + 1 MiB), so memory contention shows in it as it does
/// in session set-up.
const SESSION_BYTES: usize = zolc_isa::DATA_BASE as usize + (1 << 20);

/// Tracks the host's speed (see the module docs).
#[derive(Debug)]
pub struct HostSpeed {
    table: Vec<u32>,
    recent: [f64; 3],
    next: usize,
    every: usize,
    calls: usize,
}

impl HostSpeed {
    /// A tracker that resamples every `every` calls of
    /// [`HostSpeed::factor`].
    pub fn new(every: usize) -> HostSpeed {
        let mut h = HostSpeed {
            table: (0..1u32 << 14)
                .map(|i| i.wrapping_mul(2_654_435_761))
                .collect(),
            recent: [REFERENCE_NS; 3],
            next: 0,
            every: every.max(1),
            calls: 0,
        };
        for _ in 0..3 {
            h.resample();
        }
        h
    }

    /// Runs the reference kernel once: a pseudo-random walk over a
    /// 64 KiB table with data-dependent branches and stores, then one
    /// session-sized zeroed allocation touched page by page.
    fn kernel_ns(&mut self) -> f64 {
        let t = Instant::now();
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        let mask = self.table.len() - 1;
        for i in 0..20_000u32 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let idx = x as usize & mask;
            let v = self.table[idx];
            match v & 3 {
                0 => acc = acc.wrapping_add(u64::from(v)),
                1 => acc ^= x,
                2 => acc = acc.rotate_left(5),
                _ => self.table[idx] = v.wrapping_mul(31).wrapping_add(i),
            }
        }
        let block = vec![0u8; SESSION_BYTES];
        acc += block
            .iter()
            .step_by(4096)
            .map(|&b| u64::from(b))
            .sum::<u64>();
        std::hint::black_box(acc);
        t.elapsed().as_nanos() as f64
    }

    fn resample(&mut self) {
        self.recent[self.next] = self.kernel_ns();
        self.next = (self.next + 1) % self.recent.len();
    }

    /// The factor that turns a time measured now into reference time,
    /// resampling the kernel every `every` calls.
    pub fn factor(&mut self) -> f64 {
        self.calls += 1;
        if self.calls.is_multiple_of(self.every) {
            self.resample();
        }
        let mut r = self.recent;
        r.sort_by(f64::total_cmp);
        REFERENCE_NS / r[1]
    }
}
