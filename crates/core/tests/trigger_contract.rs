//! The trigger-set contract of [`Zolc`], checked on random tables.
//!
//! Executors skip `on_fetch`/`on_execute` at every pc outside
//! `Zolc::triggers()`. That is sound only if, at those pcs, `decide`
//! returns a trivial decision without touching the dynamic state, and a
//! retiring instruction — a taken transfer included — leaves the
//! controller unchanged. This suite fills uZOLC, ZOLClite and ZOLCfull
//! tables (entry and exit records included) with random records through
//! `zwr`, picks random dynamic states, and checks both at every pc of a
//! window the records point into.

use proptest::prelude::*;
use zolc_core::{decide, DynState, Zolc, ZolcConfig, MAX_LOOPS, TASK_NONE};
use zolc_isa::{entry_field, exit_field, loop_field, task_field, ZolcCtl, ZolcRegion};
use zolc_sim::{ExecEvent, FetchDecision, LoopEngine};

/// Record addresses and probed pcs: word addresses 0..WINDOW.
const WINDOW: u32 = 0x80;

/// A small xorshift generator: one `u64` seed drives a whole case.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u32 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 32) as u32
    }

    fn below(&mut self, n: u32) -> u32 {
        self.next() % n
    }

    fn addr(&mut self) -> u32 {
        4 * self.below(WINDOW / 4)
    }

    /// A task id of `config`, or now and then [`TASK_NONE`].
    fn task(&mut self, config: &ZolcConfig) -> u8 {
        match config.tasks() as u32 {
            0 => TASK_NONE,
            n => match self.below(n + 1) {
                k if k == n => TASK_NONE,
                k => k as u8,
            },
        }
    }
}

fn config_of(pick: u8) -> ZolcConfig {
    match pick {
        0 => ZolcConfig::micro(),
        1 => ZolcConfig::lite(),
        _ => ZolcConfig::full(),
    }
}

/// A controller of `config` with random records written through `zwr`,
/// random loop counts, and activated on a random task.
fn random_controller(config: ZolcConfig, rng: &mut Rng) -> Zolc {
    let mut z = Zolc::new(config);
    let zwr = |z: &mut Zolc, region, index: usize, field, value| {
        z.exec_zwr(region, index as u8, field, value);
    };
    for k in 0..config.loops() {
        zwr(&mut z, ZolcRegion::Loop, k, loop_field::INIT, rng.next());
        zwr(&mut z, ZolcRegion::Loop, k, loop_field::STEP, rng.next());
        zwr(&mut z, ZolcRegion::Loop, k, loop_field::LIMIT, rng.below(6));
        zwr(
            &mut z,
            ZolcRegion::Loop,
            k,
            loop_field::INDEX_REG,
            rng.below(32),
        );
        if rng.below(4) != 0 {
            zwr(&mut z, ZolcRegion::Loop, k, loop_field::START, rng.addr());
            zwr(&mut z, ZolcRegion::Loop, k, loop_field::END, rng.addr());
        }
    }
    for k in 0..config.tasks() {
        let end = rng.addr();
        let loop_id = rng.below(config.loops() as u32);
        let (next_iter, next_fallthru) = (rng.task(&config), rng.task(&config));
        zwr(&mut z, ZolcRegion::Task, k, task_field::END, end);
        zwr(&mut z, ZolcRegion::Task, k, task_field::LOOP_ID, loop_id);
        zwr(
            &mut z,
            ZolcRegion::Task,
            k,
            task_field::NEXT_ITER,
            next_iter.into(),
        );
        zwr(
            &mut z,
            ZolcRegion::Task,
            k,
            task_field::NEXT_FALLTHRU,
            next_fallthru.into(),
        );
        zwr(&mut z, ZolcRegion::Task, k, task_field::CTL, rng.below(4));
    }
    for k in 0..config.loops() * config.entry_slots() {
        let task = rng.task(&config);
        let redirect = if rng.below(2) == 0 { 0 } else { rng.addr() };
        zwr(&mut z, ZolcRegion::Entry, k, entry_field::ADDR, rng.addr());
        zwr(&mut z, ZolcRegion::Entry, k, entry_field::TASK, task.into());
        zwr(
            &mut z,
            ZolcRegion::Entry,
            k,
            entry_field::INIT_MASK,
            rng.below(256),
        );
        zwr(
            &mut z,
            ZolcRegion::Entry,
            k,
            entry_field::REDIRECT,
            redirect,
        );
        zwr(
            &mut z,
            ZolcRegion::Entry,
            k,
            entry_field::VALID,
            rng.below(3),
        );
    }
    for k in 0..config.loops() * config.exit_slots() {
        let task = rng.task(&config);
        let target = if rng.below(2) == 0 { 0 } else { rng.addr() };
        zwr(&mut z, ZolcRegion::Exit, k, exit_field::BRANCH, rng.addr());
        zwr(&mut z, ZolcRegion::Exit, k, exit_field::TASK, task.into());
        zwr(
            &mut z,
            ZolcRegion::Exit,
            k,
            exit_field::CLEAR_MASK,
            rng.below(256),
        );
        zwr(&mut z, ZolcRegion::Exit, k, exit_field::TARGET, target);
        zwr(&mut z, ZolcRegion::Exit, k, exit_field::VALID, rng.below(3));
    }
    z.exec_zctl(ZolcCtl::Activate {
        task: rng.task(&config),
    });
    for k in 0..config.loops() {
        zwr(&mut z, ZolcRegion::Loop, k, loop_field::COUNT, rng.below(5));
    }
    assert!(z.violations().is_empty(), "{:?}", z.violations());
    z
}

/// The pcs of the probe window outside `z`'s trigger set.
fn quiet_pcs(z: &Zolc) -> Vec<u32> {
    let triggers = z
        .triggers()
        .expect("Zolc publishes its trigger set")
        .to_vec();
    assert!(
        triggers.windows(2).all(|w| w[0] < w[1]),
        "sorted, deduplicated"
    );
    (0..WINDOW + 8)
        .step_by(4)
        .filter(|pc| triggers.binary_search(pc).is_err())
        .collect()
}

proptest! {
    /// Outside the set, `decide` is trivial and leaves any active
    /// dynamic state untouched.
    #[test]
    fn decide_is_inert_outside_the_trigger_set(pick in 0u8..3, seed in any::<u64>()) {
        let config = config_of(pick);
        let mut rng = Rng(seed | 1);
        let z = random_controller(config, &mut rng);
        for pc in quiet_pcs(&z) {
            let mut st = DynState {
                active: true,
                current_task: rng.task(&config),
                ..DynState::default()
            };
            for k in 0..MAX_LOOPS {
                st.counts[k] = rng.below(6);
                st.index_cur[k] = rng.next();
            }
            let before = st;
            let d = decide(z.tables(), &mut st, pc);
            prop_assert!(d.is_trivial(), "{config:?}: decide acted at {pc:#x}: {d:?}");
            prop_assert_eq!(st, before);
        }
    }

    /// Outside the set, `on_fetch` decides nothing and a retiring
    /// instruction — taken transfers included — changes no state.
    #[test]
    fn hooks_are_inert_outside_the_trigger_set(pick in 0u8..3, seed in any::<u64>()) {
        let config = config_of(pick);
        let mut rng = Rng(seed | 1);
        let z = random_controller(config, &mut rng);
        for pc in quiet_pcs(&z) {
            let mut probe = z.clone();
            prop_assert_eq!(probe.on_fetch(pc), FetchDecision::none());
            for event in [
                ExecEvent::Plain,
                ExecEvent::NotTaken,
                ExecEvent::Taken { target: rng.addr() },
            ] {
                probe.on_execute(pc, event);
            }
            prop_assert_eq!(probe.arch_state(), z.arch_state());
            prop_assert_eq!(probe.spec_state(), z.spec_state());
            prop_assert_eq!(probe.violations(), z.violations());
        }
    }
}

/// An inactive controller publishes no triggers, yet it is not passive:
/// a `zctl` turns it on.
#[test]
fn inactive_controller_has_an_empty_set_but_is_not_passive() {
    let mut rng = Rng(7);
    let mut z = random_controller(ZolcConfig::full(), &mut rng);
    z.exec_zctl(ZolcCtl::Deactivate);
    assert_eq!(z.triggers(), Some(&[][..]));
    assert!(!z.is_passive());
}
