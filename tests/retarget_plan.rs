//! Equivalence net for the two-stage retargeter.
//!
//! `zolc_cfg::retarget` output is folded into one digest per input
//! family and pinned. The inputs are the E7 seeds 1..=1000 on every
//! standard sweep point, and the 25 `zolc-lang` corpus programs and the
//! 12 Fig. 2 kernels' baseline binaries on ZOLClite and uZOLC. A digest
//! covers every field of every `Retargeted` (or the error message), so
//! any drift in a mapping decision, the emitted text, the image or a
//! note string fails here under the family's name.
//!
//! Both `retarget(p, c)` and `RetargetPlan::analyze(p)?.instantiate(c)`
//! must reproduce the pinned digests; a plan must give the same results
//! whatever order and from however many threads it is instantiated; and
//! the CFG the plan's handledness fixpoint reuses must be the CFG of its
//! virtual post-excision program.

use std::sync::Arc;
use zolc::bench::SweepConfig;
use zolc::cfg::{retarget, Cfg, RetargetError, RetargetPlan, Retargeted};
use zolc::core::ZolcConfig;
use zolc::gen::ProgramSpec;
use zolc::ir::Target;
use zolc::isa::Program;

/// FNV-1a, 64 bit: a fixed, dependency-free hash, so the pinned digests
/// do not move with the toolchain's `DefaultHasher`.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

/// One retarget result as a digest: encoded text, data, image, counted
/// starts, `unhandled`, `counter_regs`, `scratch`, `excised`,
/// `init_instructions` and `notes` — or the error message.
fn digest(r: &Result<Retargeted, RetargetError>) -> u64 {
    let mut h = Fnv::new();
    match r {
        Err(e) => h.str(&format!("error: {e}")),
        Ok(r) => {
            h.bytes(&r.program.text_bytes());
            h.bytes(r.program.data());
            h.str(&format!("{:?}", r.image));
            for c in &r.counted {
                h.u64(u64::from(c.start));
            }
            for &id in &r.unhandled {
                h.u64(id as u64);
            }
            for reg in &r.counter_regs {
                h.u64(reg.index() as u64);
            }
            h.u64(r.scratch.index() as u64);
            h.u64(r.excised as u64);
            h.u64(r.init_instructions as u64);
            for n in &r.notes {
                h.str(n);
            }
        }
    }
    h.0
}

/// Folds per-result digests, in input order, into one family digest.
fn fold(digests: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv::new();
    for d in digests {
        h.u64(d);
    }
    h.0
}

/// A family of inputs: baseline binaries and the configurations each is
/// retargeted onto.
struct Family {
    programs: Vec<Arc<Program>>,
    configs: Vec<ZolcConfig>,
}

fn e7_family() -> Family {
    let sweep = SweepConfig::new();
    let programs = (1..=1000u64)
        .map(|seed| {
            let spec = ProgramSpec::generate(seed, &sweep.gen);
            Arc::new(spec.assemble().expect("generated specs assemble").program)
        })
        .collect();
    Family {
        programs,
        configs: sweep.points.iter().map(|p| p.config).collect(),
    }
}

fn corpus_family() -> Family {
    let programs = zolc::lang::corpus()
        .iter()
        .map(|e| {
            let unit = zolc::lang::compile(e.name, e.source).expect("corpus compiles");
            let built = unit.build(&Target::Baseline).expect("baseline builds");
            Arc::clone(built.program.source())
        })
        .collect();
    Family {
        programs,
        configs: vec![ZolcConfig::lite(), ZolcConfig::micro()],
    }
}

fn kernels_family() -> Family {
    let programs = zolc::kernels::kernels()
        .iter()
        .map(|e| {
            let built = (e.build)(&Target::Baseline).expect("baseline builds");
            Arc::clone(built.program.source())
        })
        .collect();
    Family {
        programs,
        configs: vec![ZolcConfig::lite(), ZolcConfig::micro()],
    }
}

/// Digests of every (program, configuration) pair through `retarget`.
fn retarget_digests(f: &Family) -> Vec<u64> {
    f.programs
        .iter()
        .flat_map(|p| f.configs.iter().map(|c| digest(&retarget(p, c))))
        .collect()
}

/// Digests of every (program, configuration) pair through one
/// [`RetargetPlan`] per program.
fn plan_digests(f: &Family) -> Vec<u64> {
    f.programs
        .iter()
        .flat_map(|p| match RetargetPlan::analyze(Arc::clone(p)) {
            Ok(plan) => f
                .configs
                .iter()
                .map(|c| digest(&plan.instantiate(c)))
                .collect::<Vec<_>>(),
            Err(e) => vec![digest(&Err(e)); f.configs.len()],
        })
        .collect()
}

/// Both retarget paths on the family must reproduce the pinned digest.
fn check_family(name: &str, f: &Family, pinned: u64) {
    for (path, digests) in [("retarget", retarget_digests(f)), ("plan", plan_digests(f))] {
        let got = fold(digests);
        assert_eq!(
            got, pinned,
            "{name}: {path} digest {got:#018x} drifted from the pinned {pinned:#018x}"
        );
    }
}

// Pinned from `retarget` as it stood before the analyse/instantiate
// split.
const E7_DIGEST: u64 = 0x8a2d_f25f_bf7a_a18e;
const CORPUS_DIGEST: u64 = 0xe73b_b1a8_9684_9266;
const KERNELS_DIGEST: u64 = 0x09a1_cf50_b4d0_b41a;

#[test]
fn e7_seeds_match_pinned_digest() {
    check_family("e7 seeds 1..=1000", &e7_family(), E7_DIGEST);
}

#[test]
fn corpus_matches_pinned_digest() {
    check_family("corpus", &corpus_family(), CORPUS_DIGEST);
}

#[test]
fn fig2_kernels_match_pinned_digest() {
    check_family("fig2 kernels", &kernels_family(), KERNELS_DIGEST);
}

/// Plans are shared across sweep workers.
const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<RetargetPlan>();
};

/// One plan instantiated in configuration order, in reverse order, and
/// from two threads at once gives the same results.
#[test]
fn plan_instantiation_is_order_and_thread_independent() {
    for f in [e7_family(), corpus_family(), kernels_family()] {
        for p in &f.programs {
            let Ok(plan) = RetargetPlan::analyze(Arc::clone(p)) else {
                continue;
            };
            let forward = |plan: &RetargetPlan| -> Vec<u64> {
                f.configs
                    .iter()
                    .map(|c| digest(&plan.instantiate(c)))
                    .collect()
            };
            let expected = forward(&plan);
            let mut reverse: Vec<u64> = f
                .configs
                .iter()
                .rev()
                .map(|c| digest(&plan.instantiate(c)))
                .collect();
            reverse.reverse();
            assert_eq!(reverse, expected, "reverse order");
            let (a, b) = std::thread::scope(|s| {
                let a = s.spawn(|| forward(&plan));
                let b = s.spawn(|| forward(&plan));
                (a.join().unwrap(), b.join().unwrap())
            });
            assert_eq!(a, expected, "first thread");
            assert_eq!(b, expected, "second thread");
        }
    }
}

/// The handledness fixpoint reuses the original CFG for its virtual
/// post-excision program; rebuilding the CFG from that program's text
/// must give the same blocks and edges.
#[test]
fn fixpoint_cfg_is_the_virtual_program_cfg() {
    let mut excised = 0;
    for f in [e7_family(), corpus_family(), kernels_family()] {
        for p in &f.programs {
            let Ok(plan) = RetargetPlan::analyze(Arc::clone(p)) else {
                continue;
            };
            let vprog = plan.virtual_program();
            assert_eq!(plan.cfg(), &Cfg::build(&vprog));
            excised += usize::from(vprog.text() != p.text());
        }
    }
    assert!(excised > 0, "no input excised anything");
}
