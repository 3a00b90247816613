//! Micro-benchmarks for the cache model's dynamic-access tiers, isolating
//! each rung of the memory path the machine's `mem_access_parts` climbs
//! (DESIGN §16 seal-site way predictor):
//!
//! 1. **predictor hit** — two lines alternating across two seal sites: the
//!    per-site predictor names the way, one live tag compare validates it.
//! 2. **full scan hit** — the same alternating stream with the predictor
//!    disabled: every access pays the set scan and LRU bump.
//! 3. **install** — a cold streaming sweep: every access misses and pays
//!    victim selection and line install.
//!
//! The ladder only earns its keep if each tier is measurably cheaper than
//! the one below it; these three groups make that ordering a number instead
//! of an argument.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use hasp_hw::{CacheSim, HwConfig};

/// Accesses per Criterion iteration — large enough that per-iter setup
/// noise vanishes, small enough for quick samples.
const ACCESSES: u64 = 4096;

/// Two hot line addresses 8 KiB apart: same L1 set, so both stay resident
/// in the 4-way set.
const LINE_A: u64 = 0x1000;
const LINE_B: u64 = 0x3000;

fn small(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("memmodel");
    g.sample_size(20);
    g
}

/// Tier 1: the §16 way predictor. Two lines alternate across two seal
/// sites, and each site's predictor entry keeps naming the resident way —
/// the cost of one predictor load plus one validating tag compare.
fn predictor_hit(c: &mut Criterion) {
    let mut sim = CacheSim::new(&HwConfig::baseline());
    // Train: both lines resident, both sites predicting.
    sim.access_sited(0, LINE_A, false, false);
    sim.access_sited(1, LINE_B, false, false);
    let mut g = small(c);
    g.bench_function("predictor_hit", |b| {
        b.iter(|| {
            for _ in 0..ACCESSES / 2 {
                black_box(sim.fast_hit(0, black_box(LINE_A), false, false));
                black_box(sim.fast_hit(1, black_box(LINE_B), false, false));
            }
        })
    });
    g.finish();
}

/// Tier 2: the full lookup on an L1 hit. The same alternating stream with
/// the predictor disabled — every access falls through `fast_hit` into the
/// monomorphized set scan and its LRU bump.
fn full_scan_hit(c: &mut Criterion) {
    let mut sim = CacheSim::new(&HwConfig::unpredicted());
    sim.access_sited(0, LINE_A, false, false);
    sim.access_sited(1, LINE_B, false, false);
    let discipline =
        |sim: &mut CacheSim, site: u32, addr: u64| match sim.fast_hit(site, addr, false, false) {
            Some(f) => (
                hasp_hw::HitLevel::L1,
                matches!(f, hasp_hw::FastHit::Resident),
            ),
            None => sim.access_sited(site, addr, false, false),
        };
    let mut g = small(c);
    g.bench_function("full_scan_hit", |b| {
        b.iter(|| {
            for _ in 0..ACCESSES / 2 {
                black_box(discipline(&mut sim, 0, black_box(LINE_A)));
                black_box(discipline(&mut sim, 1, black_box(LINE_B)));
            }
        })
    });
    g.finish();
}

/// Tier 3: the miss path. A cold streaming sweep over a footprint far past
/// both cache levels — every access pays victim selection and install (and,
/// steady-state, an L2 or memory miss).
fn install(c: &mut Criterion) {
    let mut sim = CacheSim::new(&HwConfig::baseline());
    let mut g = small(c);
    g.bench_function("install", |b| {
        let mut cursor = 0u64;
        b.iter(|| {
            for _ in 0..ACCESSES {
                // 64 B stride over a 4 MiB ring of 65 536 lines: larger
                // than L2, so the sweep never re-hits a line it installed
                // this lap.
                let addr = (cursor & 0xFFFF) * 64;
                cursor += 1;
                black_box(sim.access(black_box(addr), false, false));
            }
        })
    });
    g.finish();
}

criterion_group!(memmodel, predictor_hit, full_scan_hit, install);
criterion_main!(memmodel);
