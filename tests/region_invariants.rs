//! Structural invariants of atomic-region formation (paper §4), checked on
//! every benchmark under every compiler configuration:
//!
//! * the compiled IR verifies (SSA + region structure),
//! * regions are single-entry and non-nested, contain no calls, and exit
//!   through `aregion_end` (the verifier enforces these),
//! * region sizes respect the formation caps,
//! * every assert has recorded provenance (abort-PC diagnosis, §3.2),
//! * the lowered code resolves every branch target.

use hasp_core::StaticRegionStats;
use hasp_experiments::profile_workload;
use hasp_hw::lower;
use hasp_opt::{compile_program, CompilerConfig};
use hasp_workloads::all_workloads;

#[test]
fn compiled_ir_verifies_and_respects_caps() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        for cfg in CompilerConfig::paper_configs() {
            let compiled = compile_program(&w.program, &profiled.profile, &cfg);
            for (mid, c) in &compiled {
                hasp_ir::verify(&c.func)
                    .unwrap_or_else(|e| panic!("{}/{} method {}: {e}", w.name, cfg.name, mid.0));
                for (ri, info) in c.func.regions.iter().enumerate() {
                    assert!(
                        info.size_estimate <= cfg.region.max_region_ops,
                        "{}/{} region {ri} size {} exceeds cap",
                        w.name,
                        cfg.name,
                        info.size_estimate
                    );
                    assert!(!c.func.block(info.begin).dead, "begin block must be live");
                }
                // Asserts carry provenance for the abort-PC mapping.
                for a in &c.func.asserts {
                    assert!(!a.origin.is_empty());
                }
                if !cfg.atomic {
                    assert!(
                        c.func.regions.is_empty(),
                        "{}: no regions in {}",
                        w.name,
                        cfg.name
                    );
                }
            }
        }
    }
}

#[test]
fn atomic_configs_form_regions_on_hot_workloads() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let cfg = CompilerConfig::atomic_aggressive();
        let compiled = compile_program(&w.program, &profiled.profile, &cfg);
        let total_regions: usize = compiled.values().map(|c| c.func.regions.len()).sum();
        assert!(total_regions > 0, "{} formed no regions at all", w.name);
        // Static coverage sanity on the entry method.
        let entry = &compiled[&w.program.entry()];
        let stats = StaticRegionStats::collect(&entry.func);
        assert!(stats.total_ops > 0);
    }
}

#[test]
fn lowering_resolves_every_target() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let cfg = CompilerConfig::atomic();
        let compiled = compile_program(&w.program, &profiled.profile, &cfg);
        for (mid, c) in &compiled {
            let code = lower(&c.func);
            for (pc, u) in code.uops.iter().enumerate() {
                let check = |t: usize| {
                    assert!(
                        t < code.uops.len(),
                        "{} method {} pc {pc}: target {t} out of range",
                        w.name,
                        mid.0
                    );
                };
                match u {
                    hasp_hw::Uop::Jmp { target } | hasp_hw::Uop::Br { target, .. } => {
                        check(*target)
                    }
                    hasp_hw::Uop::JmpInd { table, default, .. } => {
                        table.iter().for_each(|t| check(*t));
                        check(*default);
                    }
                    hasp_hw::Uop::RegionBegin { alt, .. } => check(*alt),
                    _ => {}
                }
            }
            assert_eq!(
                code.region_boundaries.len(),
                c.func.regions.len(),
                "region metadata must survive lowering"
            );
        }
    }
}

/// Compiling the same profile twice gives the same IR, virtual-register
/// numbering included: no pass may let hash order pick a value's number, a
/// phi's position or an un-inlining outcome. Each map in the process hashes
/// with its own keys, so a hash-order dependence shows up as a mismatch.
#[test]
fn compilation_repeats_exactly() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        for cfg in [
            CompilerConfig::atomic_aggressive(),
            CompilerConfig::atomic_forced_mono(),
        ] {
            let a = compile_program(&w.program, &profiled.profile, &cfg);
            let b = compile_program(&w.program, &profiled.profile, &cfg);
            for (mid, ca) in &a {
                let (da, db) = (ca.func.display(), b[mid].func.display());
                let first = da.lines().zip(db.lines()).position(|(x, y)| x != y);
                assert!(
                    da == db,
                    "{}/{} method {}: the second compile differs from IR line {first:?}",
                    w.name,
                    cfg.name,
                    mid.0
                );
            }
        }
    }
}
