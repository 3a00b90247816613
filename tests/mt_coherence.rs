//! Cross-core stress gates for the coherence directory (DESIGN §17), all
//! with the invariant validator armed and **no fault injection** — every
//! abort here is organic.
//!
//! Two legs:
//!
//! * **Machine vs antagonist** — a real machine executes a workload on
//!   core 0 while a directory-level antagonist thread on core 1 aims
//!   plain (non-speculative) writes at whatever line core 0 is currently
//!   speculating on. Asserts the conflicts are non-vacuous, that no
//!   unsignaled message ever hit a live speculative bit, that every
//!   signaled message is classified (`signaled == sig_aborts +
//!   sig_raced`), and that every victim-side conflict surfaced as exactly
//!   one machine `Conflict`/`Sle` abort.
//! * **Machine vs machine** — two machines on real threads, same address
//!   space, same directory. Both must still reproduce the interpreter's
//!   checksum bit-for-bit (the atomicity contract under genuine
//!   concurrency), and the same conservation and abort-accounting
//!   identities must hold across both cores.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use hasp_experiments::{compile_workload, profile_workload};
use hasp_hw::stats::AbortReason;
use hasp_hw::{CoreLink, Directory, HwConfig, LinkStats, Machine};
use hasp_opt::CompilerConfig;
use hasp_workloads::all_workloads;

fn stress_hw() -> HwConfig {
    HwConfig {
        name: "mt-stress",
        validate: true,
        ..HwConfig::baseline()
    }
}

/// Conflict-class machine aborts (no injection ⇒ all organic).
fn conflict_aborts(m: &Machine) -> u64 {
    m.stats().aborts.get(AbortReason::Conflict) + m.stats().aborts.get(AbortReason::Sle)
}

#[test]
fn antagonist_conflicts_are_conserved_and_observed() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "jython").expect("jython");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    let hw = stress_hw();

    // Scheduling decides how many attacks land inside a speculative window;
    // retry a few times rather than demanding luck on the first run.
    for attempt in 0..10 {
        let dir = Directory::new(2);
        let stop = AtomicBool::new(false);
        let (stats, link) = std::thread::scope(|s| {
            let antagonist = {
                let dir = Arc::clone(&dir);
                let stop = &stop;
                s.spawn(move || {
                    // Bounded attack budget so a fully-contended victim can
                    // always finish once the attacker runs dry (the governor
                    // is off, so an unbounded attacker could livelock a
                    // region into fuel exhaustion).
                    let mut attacks = 0u32;
                    while !stop.load(Ordering::Relaxed) && attacks < 400 {
                        if let Some((key, _)) = dir.any_remote_spec_key(1) {
                            dir.publish_write(1, key, false);
                            attacks += 1;
                        }
                        std::thread::yield_now();
                    }
                })
            };
            let mut mach = Machine::new(&w.program, &compiled.code, hw.clone());
            mach.set_fuel(w.fuel.saturating_mul(8));
            mach.attach_core(CoreLink::new(Arc::clone(&dir), 0, 0));
            mach.run(&[]).expect("victim run under attack");
            stop.store(true, Ordering::Relaxed);
            antagonist.join().expect("antagonist");
            assert_eq!(
                mach.env.checksum(),
                profiled.reference_checksum,
                "checksum diverged under antagonist conflicts"
            );
            let stats = mach.stats().clone();
            let link = mach.detach_core().expect("link");
            (stats, link)
        });
        // No live speculative bit ever lacked a directory claim.
        assert_eq!(
            link.stats.unsignaled_conflicts, 0,
            "unsignaled conflict (attempt {attempt}): {:?}",
            link.stats
        );
        // Conservation: every signaled message was classified by the victim.
        assert_eq!(
            dir.signaled(),
            link.stats.sig_aborts + link.stats.sig_raced,
            "conservation identity violated (attempt {attempt}): {:?}",
            link.stats
        );
        // Observation: every victim-side conflict became a machine abort.
        assert_eq!(
            stats.aborts.get(AbortReason::Conflict) + stats.aborts.get(AbortReason::Sle),
            link.stats.sig_aborts,
            "a delivered conflict did not surface as an abort (attempt {attempt})"
        );
        if link.stats.sig_aborts > 0 {
            return;
        }
    }
    panic!("antagonist never landed a conflict in 10 attempts — the gate is vacuous");
}

#[test]
fn two_machines_share_an_address_space_correctly() {
    let ws = all_workloads();
    let w = ws.iter().find(|w| w.name == "pmd").expect("pmd");
    let profiled = profile_workload(w);
    let compiled = compile_workload(w, &profiled, &CompilerConfig::atomic_aggressive());
    let hw = stress_hw();

    let mut signaled_total = 0u64;
    for attempt in 0..6 {
        let dir = Directory::new(2);
        let outcomes: Vec<(u64, LinkStats)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2u8)
                .map(|core| {
                    let dir = Arc::clone(&dir);
                    let (w, profiled, compiled, hw) = (&*w, &profiled, &compiled, &hw);
                    s.spawn(move || {
                        let mut mach = Machine::new(&w.program, &compiled.code, hw.clone());
                        mach.set_fuel(w.fuel.saturating_mul(8));
                        mach.attach_core(CoreLink::new(dir, core, 0));
                        mach.run(&[]).expect("machine under contention");
                        assert_eq!(
                            mach.env.checksum(),
                            profiled.reference_checksum,
                            "core {core} checksum diverged under contention"
                        );
                        let observed = conflict_aborts(&mach);
                        let link = mach.detach_core().expect("link");
                        (observed, link.stats)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker"))
                .collect()
        });
        let total = outcomes
            .iter()
            .fold(LinkStats::default(), |mut acc, (_, l)| {
                acc.merge(l);
                acc
            });
        assert_eq!(
            total.unsignaled_conflicts, 0,
            "unsignaled conflict (attempt {attempt}): {outcomes:?}"
        );
        assert_eq!(
            dir.signaled(),
            total.sig_aborts + total.sig_raced,
            "conservation identity violated (attempt {attempt}): {outcomes:?}"
        );
        for (core, (observed, link)) in outcomes.iter().enumerate() {
            assert_eq!(
                *observed, link.sig_aborts,
                "core {core}: delivered conflicts != conflict aborts (attempt {attempt})"
            );
        }
        signaled_total += dir.signaled();
        if signaled_total > 0 && attempt >= 1 {
            break;
        }
    }
    assert!(
        signaled_total > 0,
        "two contending machines never collided — the gate is vacuous"
    );
}
