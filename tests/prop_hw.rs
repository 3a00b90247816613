//! Property tests for the hardware substrate's bookkeeping: the cache's
//! speculative-line count must equal the number of distinct lines a live
//! region has touched (it is the region footprint the line budget and the
//! footprint histogram read), the speculative read/write bits must
//! flash-clear on both commit and abort whatever the access sequence was,
//! the seal-site way predictor must be bit-identical to the unpredicted
//! reference model under random interleavings of accesses, commits,
//! aborts, and coherence invalidations, the governor ladder must terminate
//! with the reference checksum under any fault plan, the sharded
//! coherence directory must match a sequential reference, and a core
//! link's flat per-line table must match the map bookkeeping it replaced.

use std::collections::BTreeSet;

use proptest::prelude::*;

use hasp_hw::{CacheSim, HitLevel, HwConfig};

/// One access through the machine's sited discipline: the way-predictor
/// fast path first (a validated L1 hit, which cannot overflow), the full
/// training path otherwise.
fn sited(c: &mut CacheSim, site: u32, addr: u64, write: bool, spec: bool) -> (HitLevel, bool) {
    if c.fast_hit(site, addr, write, spec) {
        (HitLevel::L1, false)
    } else {
        c.access_sited(site, addr, write, spec)
    }
}

/// Twelve hot lines crammed into two L1 sets (8 KB stride), for guaranteed
/// eviction/overflow pressure.
fn hot_addr(choice: u64, offset: u64) -> u64 {
    (choice / 2) * 8192 + (choice % 2) * 64 + offset * 8
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn predicted_cache_is_bit_identical_to_unpredicted_reference(
        ops in prop::collection::vec(
            (any::<u8>(), 0u64..12, 0u64..8, 0u32..6, any::<bool>(), any::<bool>()),
            1..300,
        ),
    ) {
        // The seal-site way predictor (DESIGN §16) against the unpredicted
        // reference model in lockstep, through the exact discipline the
        // machine uses (`sited`). Hit
        // levels, overflow signals, conflict verdicts, and speculative-line
        // counts must agree at every step of a random access / commit /
        // abort / invalidate interleaving — commits and aborts bump the
        // epoch, so trained entries keep being consulted across flash
        // clears, and the eviction pressure below makes any stale-index use
        // or LRU victim-order drift surface as a divergent hit level.
        let mut fast = CacheSim::new(&HwConfig::baseline());
        let mut reference = CacheSim::new(&HwConfig::unpredicted());
        for &(sel, choice, offset, slot, write, speculative) in &ops {
            // The hot lines are shared by only five predictor sites, so
            // entries are constantly retrained onto conflicting lines —
            // plus an occasional site-less access (slot 5 → NO_SITE), the
            // alloc-header shape.
            let addr = hot_addr(choice, offset);
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
    fn spec_lines_count_the_distinct_lines_a_live_region_touched(
        ops in prop::collection::vec(
            (any::<u8>(), 0u64..12, 0u64..8, 0u32..6, any::<bool>()),
            1..300,
        ),
    ) {
        // The region footprint is the cache's speculative-line count. A
        // predicted and an unpredicted cache run random speculative sited
        // accesses over the hot lines, interleaved with coherence
        // invalidations and downgrades, commits and aborts. After every
        // access that neither overflowed nor conflicted, both counts must
        // equal the distinct lines accessed since the last flash clear. At
        // the first overflow or conflict the region is abandoned (aborted),
        // as the machine does.
        let mut fast = CacheSim::new(&HwConfig::baseline());
        let mut reference = CacheSim::new(&HwConfig::unpredicted());
        let (mut touched, mut written) = (BTreeSet::new(), BTreeSet::new());
        for &(sel, choice, offset, slot, write) in &ops {
            let addr = hot_addr(choice, offset);
            let line = fast.line_of(addr);
            let site = if slot == 5 { hasp_hw::NO_SITE } else { slot };
            let ended = match sel % 10 {
                0..=5 => {
                    let (level, overflow) = sited(&mut fast, site, addr, write, true);
                    prop_assert_eq!(
                        (level, overflow),
                        sited(&mut reference, site, addr, write, true)
                    );
                    touched.insert(line);
                    if write {
                        written.insert(line);
                    }
                    overflow
                }
                6 => {
                    fast.commit_region();
                    reference.commit_region();
                    touched.clear();
                    written.clear();
                    false
                }
                7 => true,
                8 => {
                    let conflict = fast.invalidate_line(line);
                    prop_assert_eq!(conflict, reference.invalidate_line(line));
                    prop_assert_eq!(conflict, touched.contains(&line));
                    conflict
                }
                _ => {
                    let conflict = fast.downgrade_line(line);
                    prop_assert_eq!(conflict, reference.downgrade_line(line));
                    prop_assert_eq!(conflict, written.contains(&line));
                    conflict
                }
            };
            if ended {
                fast.abort_region();
                reference.abort_region();
                touched.clear();
                written.clear();
            }
            prop_assert_eq!(fast.spec_lines(), touched.len());
            prop_assert_eq!(reference.spec_lines(), touched.len());
        }
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
    //! case is one governed, validated run on each dispatch engine, and the
    //! two must agree on the outcome and on every statistic.

    use super::*;
    use std::sync::OnceLock;

    use hasp_experiments::{
        compile_workload, profile_workload, CompiledWorkload, ProfiledWorkload,
    };
    use hasp_hw::{Dispatch, FaultPlan, GovernorConfig, Machine};
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
            permanent in 0u32..8,
            reform in 0u32..5,
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
                permanent_disables: permanent,
                reform_budget: reform,
            };
            let mut reference = Machine::new(
                &w.program,
                &compiled.code,
                hasp_hw::HwConfig { dispatch: Dispatch::PerUop, ..hw.clone() },
            );
            let mut mach = Machine::new(&w.program, &compiled.code, hw);
            for m in [&mut mach, &mut reference] {
                m.set_fuel(w.fuel.saturating_mul(4));
            }
            let out = mach.run(&[]);
            prop_assert_eq!(&out, &reference.run(&[]), "engines disagree on the outcome");
            prop_assert!(
                mach.stats() == reference.stats(),
                "engines diverged: {:?}",
                mach.stats().diff(reference.stats())
            );
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
/// states. Random cross-core publish/release interleavings with mid-stream
/// pops — applied from one thread, so any divergence is a
/// striping/hashing/mailbox bug, not a data race.
mod directory_model {
    use super::*;

    use hasp_hw::{CohMsg, CoreId, Directory, LineState};

    const CORES: usize = 4;
    const LINE_BITS: u32 = 48;

    /// The sequential reference: the DESIGN §17 protocol in its plainest
    /// possible form.
    struct RefDir {
        lines: std::collections::BTreeMap<u64, LineState>,
        mail: Vec<std::collections::VecDeque<CohMsg>>,
        signaled: u64,
        invalidations: u64,
        downgrades: u64,
        publishes: u64,
    }

    impl RefDir {
        fn new() -> RefDir {
            RefDir {
                lines: std::collections::BTreeMap::new(),
                mail: vec![std::collections::VecDeque::new(); CORES],
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
            self.mail[to as usize].push_back(msg);
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
                (0u8..CORES as u8, 0u64..6, 0u64..2, 0u8..4, any::<bool>()),
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
                    2 => {
                        dir.release_spec(core, key);
                        reference.release(core, key);
                    }
                    _ => {
                        // A mid-stream pop: a mailbox past its inline
                        // slots refills them from its spill here.
                        let mail = &mut reference.mail[core as usize];
                        prop_assert_eq!(dir.pop_msg(core), mail.pop_front());
                        prop_assert_eq!(dir.pending(core), !mail.is_empty());
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
                let mut got = std::collections::VecDeque::new();
                while let Some(msg) = dir.pop_msg(core) {
                    got.push_back(msg);
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

/// A [`CoreLink`](hasp_hw::CoreLink)'s flat per-line state table against
/// the two hash maps it replaced (what the core holds, and its live
/// speculative registrations), kept here as the oracle. Both links run the
/// access hook's drain → publish → drain order over their own directory and
/// cache, fed the same random local accesses, remote publishes and
/// releases, drains, commits and aborts; at every step each `publish`
/// return value and each `drain` verdict must match, and so must the
/// traffic counters and the directory's line states.
mod link_model {
    use super::*;

    use std::collections::HashMap;
    use std::sync::Arc;

    use hasp_hw::stats::AbortReason;
    use hasp_hw::{CoreId, CoreLink, Directory, LinkStats};

    const LINE_BITS: u32 = 48;
    const ASID: u64 = 3;
    const ME: CoreId = 0;
    const SPEC_R: u8 = 1;
    const SPEC_W: u8 = 2;

    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Held {
        Shared,
        Owned,
    }

    /// The map-based link bookkeeping, as it stood before the flat table.
    struct MapLink {
        dir: Arc<Directory>,
        tag: u64,
        held: HashMap<u64, Held>,
        spec: HashMap<u64, u8>,
        spec_keys: Vec<u64>,
        stats: LinkStats,
    }

    impl MapLink {
        fn publish(&mut self, line: u64, write: bool, spec: bool) -> bool {
            let key = self.tag | line;
            let spec_bit = if write { SPEC_W } else { SPEC_R };
            let spec_new = spec && self.spec.get(&key).is_none_or(|b| b & spec_bit == 0);
            let held = self.held.get(&key).copied();
            let upgrade = write && held != Some(Held::Owned);
            if held.is_some() && !upgrade && !spec_new {
                return false;
            }
            self.stats.published += 1;
            if write {
                self.dir.publish_write(ME, key, spec);
                self.held.insert(key, Held::Owned);
            } else {
                self.dir.publish_read(ME, key, spec);
                self.held.entry(key).or_insert(Held::Shared);
            }
            if spec {
                let bits = self.spec.entry(key).or_insert_with(|| {
                    self.spec_keys.push(key);
                    0
                });
                *bits |= spec_bit;
            }
            true
        }

        fn drain(&mut self, cache: &mut CacheSim) -> Option<AbortReason> {
            while let Some(msg) = self.dir.pop_msg(ME) {
                self.stats.drained += 1;
                let line = msg.line();
                if msg.write {
                    self.held.remove(&msg.key);
                } else if self.held.get(&msg.key) == Some(&Held::Owned) {
                    self.held.insert(msg.key, Held::Shared);
                }
                let live_bit = if msg.write {
                    cache.invalidate_line(line)
                } else {
                    cache.downgrade_line(line)
                };
                let registered = msg.signal && self.spec.contains_key(&msg.key);
                if live_bit || registered {
                    if msg.signal {
                        self.stats.sig_aborts += 1;
                    } else {
                        self.stats.unsignaled_conflicts += 1;
                    }
                    return Some(AbortReason::Conflict);
                }
                if msg.signal {
                    self.stats.sig_raced += 1;
                } else {
                    self.stats.benign += 1;
                }
            }
            None
        }

        fn release_spec(&mut self) {
            for key in self.spec_keys.drain(..) {
                self.dir.release_spec(ME, key);
            }
            self.spec.clear();
        }
    }

    /// The link operations the access hook uses, for the link under test
    /// and the oracle alike.
    trait Link {
        fn pending(&self) -> bool;
        fn publish(&mut self, line: u64, write: bool, spec: bool) -> bool;
        fn drain(&mut self, cache: &mut CacheSim) -> Option<AbortReason>;
        fn release_spec(&mut self);
    }

    impl Link for CoreLink {
        fn pending(&self) -> bool {
            CoreLink::pending(self)
        }
        fn publish(&mut self, line: u64, write: bool, spec: bool) -> bool {
            CoreLink::publish(self, line, write, spec)
        }
        fn drain(&mut self, cache: &mut CacheSim) -> Option<AbortReason> {
            CoreLink::drain(self, cache)
        }
        fn release_spec(&mut self) {
            CoreLink::release_spec(self);
        }
    }

    impl Link for MapLink {
        fn pending(&self) -> bool {
            self.dir.pending(ME)
        }
        fn publish(&mut self, line: u64, write: bool, spec: bool) -> bool {
            MapLink::publish(self, line, write, spec)
        }
        fn drain(&mut self, cache: &mut CacheSim) -> Option<AbortReason> {
            MapLink::drain(self, cache)
        }
        fn release_spec(&mut self) {
            MapLink::release_spec(self);
        }
    }

    /// What one step observed: every `publish` return and `drain` verdict.
    #[derive(Debug, PartialEq, Eq)]
    enum Seen {
        Published(bool),
        Drained(Option<AbortReason>),
    }

    /// One core: a link, its cache, and whether a region is in flight.
    struct Core<L> {
        link: L,
        cache: CacheSim,
        in_region: bool,
    }

    impl<L: Link> Core<L> {
        fn drain(&mut self, seen: &mut Vec<Seen>) -> Option<AbortReason> {
            let verdict = self.link.drain(&mut self.cache);
            seen.push(Seen::Drained(verdict));
            verdict
        }

        /// The machine's access hook (`CoreLink::access`) spelled out step
        /// by step, then the cache access itself, or the abort.
        fn access(&mut self, line: u64, write: bool, seen: &mut Vec<Seen>) {
            let spec = self.in_region;
            let mut verdict = None;
            if self.link.pending() {
                verdict = self.drain(seen);
            }
            while verdict.is_none() {
                // A drain empties the mailbox, so a second skip is the
                // last; a count that stays pending means a lost message.
                assert!(seen.len() < 16, "the hook never settled: {seen:?}");
                let published = self.link.publish(line, write, spec);
                seen.push(Seen::Published(published));
                if published || !self.link.pending() {
                    break;
                }
                verdict = self.drain(seen);
            }
            if verdict.is_none() && self.link.pending() {
                verdict = self.drain(seen);
            }
            match verdict {
                Some(_) => self.resolve(false),
                None => {
                    let (_, overflow) = self.cache.access(line * 64, write, spec);
                    if overflow {
                        self.resolve(false);
                    }
                }
            }
        }

        /// Commit or abort: the flash clear, then the directory release.
        fn resolve(&mut self, commit: bool) {
            if !self.in_region {
                return;
            }
            if commit {
                self.cache.commit_region();
            } else {
                self.cache.abort_region();
            }
            self.link.release_spec();
            self.in_region = false;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 256, ..ProptestConfig::default() })]

        #[test]
        fn flat_link_table_matches_the_map_bookkeeping(
            ops in prop::collection::vec(
                (0u8..8, 0u64..12, any::<bool>(), any::<bool>(), 1u8..3),
                0..300,
            ),
        ) {
            // Lines 0..12 take in the fallback-lock line (5) and make the
            // table grow mid-run; remote cores 1 and 2 share the asid.
            let dir = Directory::with_stripes(3, 2);
            let oracle_dir = Directory::with_stripes(3, 2);
            let hw = HwConfig::baseline();
            let mut flat = Core {
                link: CoreLink::new(Arc::clone(&dir), ME, ASID as u16),
                cache: CacheSim::new(&hw),
                in_region: false,
            };
            let mut maps = Core {
                link: MapLink {
                    dir: Arc::clone(&oracle_dir),
                    tag: ASID << LINE_BITS,
                    held: HashMap::new(),
                    spec: HashMap::new(),
                    spec_keys: Vec::new(),
                    stats: LinkStats::default(),
                },
                cache: CacheSim::new(&hw),
                in_region: false,
            };
            for (step, &(kind, line, write, spec, remote)) in ops.iter().enumerate() {
                let key = (ASID << LINE_BITS) | line;
                let (mut a, mut b) = (Vec::new(), Vec::new());
                match kind {
                    0 | 1 => {
                        flat.access(line, write, &mut a);
                        maps.access(line, write, &mut b);
                    }
                    2 => {
                        flat.in_region = true;
                        maps.in_region = true;
                    }
                    3 => {
                        flat.resolve(write);
                        maps.resolve(write);
                    }
                    4 => {
                        if flat.drain(&mut a).is_some() {
                            flat.resolve(false);
                        }
                        if maps.drain(&mut b).is_some() {
                            maps.resolve(false);
                        }
                    }
                    5 | 6 => {
                        for d in [&dir, &oracle_dir] {
                            if write {
                                d.publish_write(remote, key, spec);
                            } else {
                                d.publish_read(remote, key, spec);
                            }
                        }
                    }
                    _ => {
                        dir.release_spec(remote, key);
                        oracle_dir.release_spec(remote, key);
                    }
                }
                prop_assert_eq!(&a, &b, "step {}: publish/drain verdicts", step);
                prop_assert_eq!(flat.link.stats, maps.link.stats, "step {}", step);
                prop_assert_eq!(flat.in_region, maps.in_region, "step {}", step);
                prop_assert_eq!(dir.line_state(key), oracle_dir.line_state(key), "step {}", step);
            }
            prop_assert_eq!(flat.link.stats.unsignaled_conflicts, 0);
        }
    }
}
