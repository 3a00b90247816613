//! Property tests for the hardware substrate's bookkeeping structures:
//! `LineSet` must behave exactly like a sorted set under random insert
//! sequences (duplicates, overflow boundaries), the cache's speculative
//! read/write bits must flash-clear on both commit and abort whatever the
//! access sequence was, and the seal-site way predictor must be
//! bit-identical to the unpredicted reference model under random
//! interleavings of accesses, commits, aborts, and coherence invalidations.

use proptest::prelude::*;

use hasp_hw::lineset::{LineSet, SPILL_LINES};
use hasp_hw::{CacheSim, HitLevel, HwConfig};

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn lineset_matches_reference_set_semantics(
        lines in prop::collection::vec(0u64..96, 0..200),
    ) {
        let mut dense = LineSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for &line in &lines {
            // Duplicate inserts must be rejected exactly when the reference
            // rejects them.
            prop_assert_eq!(dense.insert(line), reference.insert(line));
            prop_assert_eq!(dense.len(), reference.len());
        }
        // Same members, no duplicates (sorted view is representation-
        // independent: the dense vector keeps insertion order).
        let expect: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(dense.to_sorted_vec(), expect);
        for probe in 0..96 {
            prop_assert_eq!(dense.contains(probe), reference.contains(&probe));
        }
    }

    #[test]
    fn lineset_agrees_across_the_spill_boundary(
        lines in prop::collection::vec(0u64..1024, 0..700),
        probes in prop::collection::vec(0u64..1024, 16..17),
    ) {
        // The hybrid set must answer insert/contains/len identically to a
        // reference set whether it is still the dense sorted vector or has
        // spilled to the hash representation — the universe and length here
        // are sized so both sides of the SPILL_LINES threshold are hit.
        let mut hybrid = LineSet::new();
        let mut reference = std::collections::BTreeSet::new();
        for &line in &lines {
            prop_assert_eq!(hybrid.insert(line), reference.insert(line));
            prop_assert_eq!(hybrid.len(), reference.len());
            prop_assert_eq!(hybrid.is_spilled(), reference.len() > SPILL_LINES);
        }
        let expect: Vec<u64> = reference.iter().copied().collect();
        prop_assert_eq!(hybrid.to_sorted_vec(), expect);
        for &probe in &probes {
            prop_assert_eq!(hybrid.contains(probe), reference.contains(&probe));
        }
        // Clearing resets to the dense representation.
        hybrid.clear();
        prop_assert!(hybrid.is_empty() && !hybrid.is_spilled());
    }

    #[test]
    fn lineset_overflow_boundary_is_exact(
        budget in 1u64..24,
        extra in 0u64..8,
    ) {
        // Inserting exactly `budget` distinct lines stays at the boundary;
        // each extra distinct line grows the footprint past it — the machine's
        // line-budget overflow trigger fires on `len() > budget`.
        let mut s = LineSet::new();
        for line in 0..budget {
            s.insert(line * 7);
        }
        prop_assert_eq!(s.len() as u64, budget);
        prop_assert!(s.len() as u64 <= budget, "at the boundary: no overflow");
        for line in 0..extra {
            s.insert(budget * 7 + line + 1);
        }
        prop_assert_eq!(s.len() as u64, budget + extra);
        prop_assert_eq!(s.len() as u64 > budget, extra > 0);
    }

    #[test]
    fn predicted_cache_is_bit_identical_to_unpredicted_reference(
        ops in prop::collection::vec(
            (any::<u8>(), 0u64..12, 0u64..8, 0u32..6, any::<bool>(), any::<bool>()),
            1..300,
        ),
    ) {
        // The seal-site way predictor (DESIGN §16) against the unpredicted
        // reference model in lockstep, through the exact discipline the
        // machine uses: consult `fast_hit` first (both `Absorbed` and
        // `Resident` are validated L1 hits that cannot geometrically
        // overflow), fall through to the full sited path otherwise. Hit
        // levels, overflow signals, conflict verdicts, and speculative-line
        // counts must agree at every step of a random access / commit /
        // abort / invalidate interleaving — commits and aborts bump the
        // epoch, so trained entries keep being consulted across flash
        // clears, and the eviction pressure below makes any stale-index use
        // or LRU victim-order drift surface as a divergent hit level.
        let mut fast = CacheSim::new(&HwConfig::baseline());
        let mut reference = CacheSim::new(&HwConfig::unpredicted());
        let sited = |c: &mut CacheSim, site: u32, addr: u64, write: bool, spec: bool| {
            match c.fast_hit(site, addr, write, spec) {
                Some(_) => (HitLevel::L1, false),
                None => c.access_sited(site, addr, write, spec),
            }
        };
        for &(sel, choice, offset, slot, write, speculative) in &ops {
            // Twelve hot lines crammed into two L1 sets (8 KB stride), for
            // guaranteed eviction/overflow pressure, shared by only five
            // predictor sites so entries are constantly retrained onto
            // conflicting lines — plus an occasional site-less access
            // (slot 5 → NO_SITE), the fallback-lock / alloc-header shape.
            let addr = (choice / 2) * 8192 + (choice % 2) * 64 + offset * 8;
            let site = if slot == 5 { hasp_hw::NO_SITE } else { slot };
            match sel % 8 {
                // Weighted toward accesses.
                0..=4 => prop_assert_eq!(
                    sited(&mut fast, site, addr, write, speculative),
                    sited(&mut reference, site, addr, write, speculative),
                    "access {addr:#x} site {site} (write={write}, spec={speculative}) diverged"
                ),
                5 => {
                    fast.commit_region();
                    reference.commit_region();
                }
                6 => {
                    fast.abort_region();
                    reference.abort_region();
                }
                _ => prop_assert_eq!(
                    fast.invalidate(addr),
                    reference.invalidate(addr),
                    "invalidate {addr:#x} conflict verdict diverged"
                ),
            }
            prop_assert_eq!(fast.spec_lines(), reference.spec_lines());
        }
        // The reference side must never have consulted a predictor.
        prop_assert_eq!(reference.pred_stats().probes, 0);
    }

    #[test]
    fn spec_bits_flash_clear_on_commit_and_abort(
        accesses in prop::collection::vec(
            (0u64..0x40_00, any::<bool>()),
            1..64,
        ),
        commit in any::<bool>(),
    ) {
        let mut c = CacheSim::new(&HwConfig::baseline());
        let mut overflowed = false;
        for &(addr, write) in &accesses {
            // 64B-aligned-ish speculative accesses inside one region.
            let (_, ovf) = c.access(addr * 8, write, true);
            if ovf {
                // Real hardware aborts here; for the property we just stop
                // accumulating speculative state.
                overflowed = true;
                break;
            }
        }
        if !overflowed {
            prop_assert!(c.spec_lines() > 0, "region touched at least one line");
        }
        if commit {
            c.commit_region();
        } else {
            c.abort_region();
        }
        prop_assert_eq!(
            c.spec_lines(),
            0,
            "speculative R/W bits must flash-clear on {}",
            if commit { "commit" } else { "abort" }
        );
        // A second flash-clear is idempotent.
        c.commit_region();
        c.abort_region();
        prop_assert_eq!(c.spec_lines(), 0);
    }
}

mod ladder_liveness {
    //! Governor-ladder liveness: under an *arbitrary* fault plan and an
    //! arbitrary (small-budget) ladder policy, the machine must always
    //! terminate with the interpreter's checksum — no tier livelock, no
    //! retry loop that starves the alt path — and the per-tier accounting
    //! must balance at run end. The compiled workload is built once; each
    //! case is one governed, validated machine run.

    use super::*;
    use std::sync::OnceLock;

    use hasp_experiments::{
        compile_workload, profile_workload, CompiledWorkload, ProfiledWorkload,
    };
    use hasp_hw::{FaultPlan, GovernorConfig, Machine};
    use hasp_opt::CompilerConfig;
    use hasp_workloads::{synthetic, Workload};

    fn fixture() -> &'static (Workload, ProfiledWorkload, CompiledWorkload) {
        static FIXTURE: OnceLock<(Workload, ProfiledWorkload, CompiledWorkload)> = OnceLock::new();
        FIXTURE.get_or_init(|| {
            let w = synthetic::add_element(400);
            let profiled = profile_workload(&w);
            let compiled = compile_workload(&w, &profiled, &CompilerConfig::atomic());
            (w, profiled, compiled)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

        #[test]
        fn machine_terminates_with_reference_checksum_under_any_plan(
            seed in any::<u64>(),
            conflict in prop_oneof![Just(0u64), 200u64..50_000],
            interrupt in prop_oneof![Just(0u64), 500u64..50_000],
            spurious in prop_oneof![Just(0u64), 200u64..50_000],
            line_budget in prop_oneof![Just(0u64), 2u64..24],
            abort_at in prop_oneof![Just(None), (1u64..200).prop_map(Some)],
            retry_budget in 1u32..5,
            cooldown in 1u64..16,
            tier2 in 0u32..4,
            tier3 in 0u32..4,
            reform in 0u32..5,
            lock_held in any::<bool>(),
        ) {
            let (w, profiled, compiled) = fixture();
            let mut hw = hasp_hw::HwConfig::baseline();
            hw.validate = true;
            hw.faults = FaultPlan {
                seed,
                conflict_per_miljon: conflict,
                interrupt_interval: interrupt,
                spurious_per_miljon: spurious,
                line_budget,
                abort_at_entry: abort_at,
            };
            hw.governor = GovernorConfig {
                enabled: true,
                retry_budget,
                cooldown_entries: cooldown,
                max_cooldown: cooldown * 16,
                tier2_disables: tier2,
                tier3_disables: tier3,
                reform_budget: reform,
            };
            let mut mach = Machine::new(&w.program, &compiled.code, hw);
            mach.set_fuel(w.fuel.saturating_mul(4));
            if lock_held {
                mach.set_fallback_lock(true);
            }
            let out = mach.run(&[]);
            prop_assert!(out.is_ok(), "machine must terminate cleanly: {:?}", out.err());
            prop_assert_eq!(
                mach.env.checksum(),
                profiled.reference_checksum,
                "ladder must preserve semantics under injection"
            );
            prop_assert!(
                mach.stats().tier_counters_consistent(),
                "tier accounting must balance: enters {:?} exits {:?} live {:?}",
                mach.stats().tier_enters,
                mach.stats().tier_exits,
                mach.stats().tier_live
            );
        }
    }
}

/// The sharded [`Directory`](hasp_hw::Directory) must implement exactly the
/// protocol of a naive sequential reference directory (one flat map, plain
/// per-core queues, no striping, no atomics): same message streams per
/// core, same signal verdicts, same global counters, same final line
/// states. Random cross-core publish/release interleavings — applied from
/// one thread, so any divergence is a striping/hashing/mailbox bug, not a
/// data race.
mod directory_model {
    use super::*;

    use hasp_hw::{CohMsg, CoreId, Directory, LineState};

    const CORES: usize = 4;
    const LINE_BITS: u32 = 48;

    /// The sequential reference: the DESIGN §17 protocol in its plainest
    /// possible form.
    struct RefDir {
        lines: std::collections::BTreeMap<u64, LineState>,
        mail: Vec<Vec<CohMsg>>,
        signaled: u64,
        invalidations: u64,
        downgrades: u64,
        publishes: u64,
    }

    impl RefDir {
        fn new() -> RefDir {
            RefDir {
                lines: std::collections::BTreeMap::new(),
                mail: vec![Vec::new(); CORES],
                signaled: 0,
                invalidations: 0,
                downgrades: 0,
                publishes: 0,
            }
        }

        fn post(&mut self, to: CoreId, msg: CohMsg) {
            if msg.signal {
                self.signaled += 1;
            }
            if msg.write {
                self.invalidations += 1;
            } else {
                self.downgrades += 1;
            }
            self.mail[to as usize].push(msg);
        }

        fn write(&mut self, me: CoreId, key: u64, spec: bool) {
            self.publishes += 1;
            let my_bit = 1u64 << me;
            let st = self.lines.entry(key).or_default();
            let victims = st.sharers & !my_bit;
            let signaled_spec = st.spec_readers & !my_bit;
            let spec_writer = st.spec_writer.filter(|&w| w != me);
            st.owner = Some(me);
            st.sharers = my_bit;
            st.spec_readers &= my_bit;
            if st.spec_writer != Some(me) {
                st.spec_writer = None;
            }
            if spec {
                st.spec_writer = Some(me);
            }
            for v in 0..CORES as u8 {
                let bit = 1u64 << v;
                if victims & bit != 0 {
                    let signal = signaled_spec & bit != 0 || spec_writer == Some(v);
                    self.post(
                        v,
                        CohMsg {
                            key,
                            write: true,
                            signal,
                        },
                    );
                }
            }
        }

        fn read(&mut self, me: CoreId, key: u64, spec: bool) {
            self.publishes += 1;
            let my_bit = 1u64 << me;
            let st = self.lines.entry(key).or_default();
            let victim = st.owner.filter(|&o| o != me);
            let signal = victim.is_some() && st.spec_writer == victim;
            if victim.is_some() {
                st.owner = None;
                if signal {
                    st.spec_writer = None;
                }
            }
            st.sharers |= my_bit;
            if spec {
                st.spec_readers |= my_bit;
            }
            if let Some(v) = victim {
                self.post(
                    v,
                    CohMsg {
                        key,
                        write: false,
                        signal,
                    },
                );
            }
        }

        fn release(&mut self, me: CoreId, key: u64) {
            let my_bit = 1u64 << me;
            if let Some(st) = self.lines.get_mut(&key) {
                st.spec_readers &= !my_bit;
                if st.spec_writer == Some(me) {
                    st.spec_writer = None;
                }
                let empty = st.owner.is_none()
                    && st.sharers == 0
                    && st.spec_readers == 0
                    && st.spec_writer.is_none();
                if empty {
                    self.lines.remove(&key);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn directory_matches_sequential_reference(
            ops in prop::collection::vec(
                (0u8..CORES as u8, 0u64..6, 0u64..2, 0u8..3, any::<bool>()),
                0..300,
            ),
        ) {
            // A tiny line universe across two asids forces heavy collisions
            // (and checks asid isolation falls out of key packing alone).
            let dir = Directory::with_stripes(CORES, 8);
            let mut reference = RefDir::new();
            for &(core, line, asid, kind, spec) in &ops {
                let key = (asid << LINE_BITS) | line;
                match kind {
                    0 => {
                        dir.publish_write(core, key, spec);
                        reference.write(core, key, spec);
                    }
                    1 => {
                        dir.publish_read(core, key, spec);
                        reference.read(core, key, spec);
                    }
                    _ => {
                        dir.release_spec(core, key);
                        reference.release(core, key);
                    }
                }
            }
            // Same global counters...
            prop_assert_eq!(dir.signaled(), reference.signaled);
            prop_assert_eq!(dir.invalidations(), reference.invalidations);
            prop_assert_eq!(dir.downgrades(), reference.downgrades);
            prop_assert_eq!(dir.publishes(), reference.publishes);
            // ...same per-core message streams, in order...
            for core in 0..CORES as u8 {
                let mut got = Vec::new();
                while let Some(msg) = dir.pop_msg(core) {
                    got.push(msg);
                }
                prop_assert_eq!(
                    &got,
                    &reference.mail[core as usize],
                    "core {} mailbox diverged",
                    core
                );
                prop_assert!(!dir.pending(core), "drained mailbox still pending");
            }
            // ...same final line states over the whole touched universe.
            for &(_, line, asid, _, _) in &ops {
                let key = (asid << LINE_BITS) | line;
                let expect = reference.lines.get(&key).copied().unwrap_or_default();
                prop_assert_eq!(dir.line_state(key), expect, "key {:#x}", key);
            }
        }
    }
}
