//! The five-step region-formation pipeline (paper §4):
//!
//! 1. Aggressively inline methods — done by the caller (`hasp-opt`'s
//!    inliner), which hands the [`InlineSite`] records here.
//! 2. Select region boundaries (Algorithm 1), un-inlining pruned methods.
//! 3. Replicate flowgraphs for selected regions.
//! 4. Convert cold edges into asserts.
//! 5. Remove all (aggressively) inlined methods from non-speculative paths.

use std::collections::BTreeSet;

use hasp_ir::{BlockId, BlockSet, Func, RegionId};

use crate::boundaries::select_boundaries;
use crate::config::RegionConfig;
use crate::normalize::split_at_calls;
use crate::replicate::form_regions;
use crate::site::{uninline_checked, InlineBudget, InlineSite};

/// Outcome of region formation on one function.
#[derive(Debug, Clone)]
pub struct FormationResult {
    /// Regions created (indices into `Func::regions`).
    pub regions: Vec<RegionId>,
    /// The boundary blocks chosen by Algorithm 1 (original block ids; they
    /// are the abort targets after formation).
    pub boundaries: BTreeSet<BlockId>,
    /// Sites un-inlined during pruning (step 2).
    pub pruned_sites: Vec<usize>,
    /// Sites un-inlined from non-speculative paths (step 5).
    pub despeculated_sites: Vec<usize>,
}

/// Runs steps 2–5 on an already-inlined function.
pub fn form_atomic_regions(
    f: &mut Func,
    sites: &[InlineSite],
    cfg: &RegionConfig,
) -> FormationResult {
    split_at_calls(f);
    let sel = select_boundaries(f, sites, cfg);
    let regions = form_regions(f, &sel.boundaries, cfg);

    // Step 5: aggressively-inlined methods are retained only along
    // speculative paths (inside the region copies); the originals revert to
    // calls. Sites that ended up containing a region boundary stay fully
    // inlined — their middle is an abort target and cannot be collapsed.
    let mut guard: BlockSet = sel.boundaries.iter().copied().collect();
    for ri in &regions {
        guard.insert(f.regions[ri.0 as usize].begin);
    }
    let mut despeculated = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        if sel.pruned_sites.contains(&i)
            || site.budget == InlineBudget::Baseline
            || site.contains_any(&guard)
            || !site.is_live(f)
        {
            continue;
        }
        if uninline_checked(f, site) {
            despeculated.push(i);
        }
    }

    FormationResult {
        regions,
        boundaries: sel.boundaries,
        pruned_sites: sel.pruned_sites,
        despeculated_sites: despeculated,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{translate, verify};
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};
    use hasp_vm::interp::Interp;

    /// Builds the Figure 2 `addElement`-style hot/cold method and a caller
    /// loop, runs it for a profile, and returns the translated caller.
    fn profiled_hot_loop() -> Func {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("Vec", None, &["cached", "i", "chunk_size"]);
        let f_cached = pb.field(c, "cached");
        let f_i = pb.field(c, "i");
        let f_cs = pb.field(c, "chunk_size");

        // main: builds a Vec with a big cached chunk, loops addElement-like
        // body inline (the hot path with a cold overflow branch).
        let mut m = pb.method("main", 0);
        let v = m.reg();
        m.new_obj(v, c);
        let cap = m.imm(1 << 20);
        let arr = m.reg();
        m.new_array(arr, cap);
        m.put_field(v, f_cached, arr);
        m.put_field(v, f_cs, cap);
        let zero = m.imm(0);
        m.put_field(v, f_i, zero);
        let n = m.imm(5000);
        let k = m.imm(0);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        let cold = m.new_label();
        let join = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, k, n, exit);
        // hot body: i = v.i; if i >= chunk_size goto cold; cached[i] = k; ++i
        let i = m.reg();
        m.get_field(i, v, f_i);
        let cs = m.reg();
        m.get_field(cs, v, f_cs);
        m.branch(CmpOp::Ge, i, cs, cold);
        let cached = m.reg();
        m.get_field(cached, v, f_cached);
        m.astore(cached, i, k);
        let i2 = m.reg();
        m.bin(BinOp::Add, i2, i, one);
        m.put_field(v, f_i, i2);
        m.jump(join);
        m.bind(cold);
        // cold path: reset i (never executed in this run)
        m.put_field(v, f_i, zero);
        m.jump(join);
        m.bind(join);
        m.bin(BinOp::Add, k, k, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);

        let mut interp = Interp::new(&p).with_profiling();
        interp.set_fuel(100_000_000);
        interp.run(&[]).unwrap();
        let prof = interp.profile.method(entry).cloned();
        translate(&p, entry, prof.as_ref())
    }

    #[test]
    fn full_pipeline_on_hot_loop() {
        let mut f = profiled_hot_loop();
        verify(&f).unwrap();
        let cfg = RegionConfig::default();
        let result = form_atomic_regions(&mut f, &[], &cfg);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert!(
            !result.regions.is_empty(),
            "hot loop must get at least one region"
        );
        // The cold overflow branch inside the region became an assert.
        let n_asserts: usize = f
            .block_ids()
            .iter()
            .map(|b| {
                f.block(*b)
                    .insts
                    .iter()
                    .filter(|i| matches!(i.op, hasp_ir::Op::Assert { .. }))
                    .count()
            })
            .sum();
        assert!(n_asserts >= 1, "{}", f.display());
        // Assert provenance recorded.
        assert_eq!(f.asserts.len(), n_asserts);
    }

    #[test]
    fn formation_is_idempotent_on_cold_code() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let r = m.imm(7);
        m.ret(Some(r));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut f = translate(&p, entry, None);
        let result = form_atomic_regions(&mut f, &[], &RegionConfig::default());
        assert!(result.regions.is_empty());
        verify(&f).unwrap();
    }
}
