//! Compiler configurations and the compilation pipeline.
//!
//! Four configurations mirror the paper's evaluation (§6):
//!
//! * `no-atomic` — baseline optimizations, close to Harmony's server config.
//! * `atomic` — baseline plus atomic region formation, partial inlining,
//!   (partial) unrolling via region replication, and speculative lock
//!   elision.
//! * `no-atomic + aggressive inlining` — baseline with a 5× inlining
//!   threshold (scope enlargement without atomicity).
//! * `atomic + aggressive inlining` — both.

use std::collections::{BTreeSet, HashMap};

use hasp_core::{form_atomic_regions, FormationResult, InlineSite, RegionConfig};
use hasp_ir::{translate, verify, Func};
use hasp_vm::bytecode::MethodId;
use hasp_vm::class::Program;
use hasp_vm::profile::Profile;

use crate::inline::{self, InlineOptions};
use crate::{checkelim, constprop, dce, gvn, safepoint, simplify, sle, unroll};

/// A complete compiler configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CompilerConfig {
    /// Display name (appears in experiment reports).
    pub name: &'static str,
    /// Form atomic regions and run region-enabled optimizations.
    pub atomic: bool,
    /// Inliner options.
    pub inline: InlineOptions,
    /// Region-formation parameters.
    pub region: RegionConfig,
    /// Speculative lock elision (atomic only).
    pub sle: bool,
    /// Safepoint elision in enclosed loops (atomic only).
    pub safepoint_elision: bool,
    /// §7 post-dominance bounds-check elimination (atomic only).
    pub postdom_checkelim: bool,
    /// Partial loop unrolling inside regions (atomic only).
    pub partial_unroll: bool,
    /// Optimization rounds after inlining/formation.
    pub opt_rounds: usize,
    /// Per-method re-formation exclusion sets: boundary blocks (original,
    /// pre-replication ids) that must not seed a region when the named
    /// method is recompiled. Populated by the adaptive re-formation loop
    /// from `ReformRequest`s the hardware governor emits; empty in every
    /// stock configuration.
    pub exclusions: HashMap<MethodId, BTreeSet<u32>>,
}

impl CompilerConfig {
    /// The `no-atomic` baseline.
    pub fn no_atomic() -> Self {
        CompilerConfig {
            name: "no-atomic",
            atomic: false,
            inline: InlineOptions::default(),
            region: RegionConfig::default(),
            sle: false,
            safepoint_elision: false,
            postdom_checkelim: false,
            partial_unroll: false,
            opt_rounds: 3,
            exclusions: HashMap::new(),
        }
    }

    /// The `atomic` configuration.
    pub fn atomic() -> Self {
        CompilerConfig {
            name: "atomic",
            atomic: true,
            inline: InlineOptions {
                aggressive: true,
                ..InlineOptions::default()
            },
            sle: true,
            safepoint_elision: true,
            postdom_checkelim: false,
            partial_unroll: true,
            ..CompilerConfig::no_atomic()
        }
    }

    /// `no-atomic + aggressive inlining` (5× threshold).
    pub fn no_atomic_aggressive() -> Self {
        let mut c = CompilerConfig::no_atomic();
        c.name = "no-atomic+aggr-inline";
        c.inline = c.inline.with_aggressive_threshold();
        c
    }

    /// `atomic + aggressive inlining`.
    pub fn atomic_aggressive() -> Self {
        let mut c = CompilerConfig::atomic();
        c.name = "atomic+aggr-inline";
        c.inline = c.inline.with_aggressive_threshold();
        c
    }

    /// `atomic` with the forced dominant-receiver devirtualization (the grey
    /// bar in Figure 7's jython result).
    pub fn atomic_forced_mono() -> Self {
        let mut c = CompilerConfig::atomic();
        c.name = "atomic+forced-mono";
        c.inline.force_dominant_receiver = true;
        c
    }

    /// Merges boundary exclusions for `method` into this configuration
    /// (adaptive re-formation: the hardware governor saw the region at
    /// `boundaries` keep aborting and asked for it to be dissolved).
    pub fn exclude(&mut self, method: MethodId, boundaries: impl IntoIterator<Item = u32>) {
        self.exclusions
            .entry(method)
            .or_default()
            .extend(boundaries);
    }

    /// The effective region configuration for `method`: the shared
    /// `region` parameters plus that method's exclusion set, if any.
    pub fn region_for(&self, method: MethodId) -> RegionConfig {
        match self.exclusions.get(&method) {
            Some(ex) if !ex.is_empty() => self.region.clone().with_excluded(ex.iter().copied()),
            _ => self.region.clone(),
        }
    }

    /// All four paper configurations, baseline first.
    pub fn paper_configs() -> Vec<CompilerConfig> {
        vec![
            CompilerConfig::no_atomic(),
            CompilerConfig::atomic(),
            CompilerConfig::no_atomic_aggressive(),
            CompilerConfig::atomic_aggressive(),
        ]
    }
}

/// One compiled method: optimized IR plus compilation metadata.
#[derive(Debug, Clone)]
pub struct CompiledMethod {
    /// The optimized function.
    pub func: Func,
    /// Inline sites created (before pruning).
    pub sites: Vec<InlineSite>,
    /// Region-formation outcome, when atomic.
    pub formation: Option<FormationResult>,
}

/// Compiles a single method under `cfg`.
///
/// # Panics
/// Panics if an internal pass breaks IR invariants: the verifier runs after
/// every pass in debug builds and once, on the final IR, in release builds.
pub fn compile_method(
    program: &Program,
    profile: &Profile,
    method: MethodId,
    cfg: &CompilerConfig,
) -> CompiledMethod {
    let mut f = translate(program, method, profile.method(method));
    verify_after(&f, "translate", cfg);

    // Pre-inline cleanup (keeps callee-size estimates honest).
    gvn::run(&mut f);
    verify_after(&f, "gvn", cfg);
    constprop::run(&mut f);
    verify_after(&f, "constprop", cfg);
    dce::run(&mut f);
    verify_after(&f, "dce", cfg);

    let m = program.method(method);
    let sites = if m.opaque {
        Vec::new()
    } else {
        inline::run(&mut f, program, profile, &cfg.inline)
    };
    verify_after(&f, "inline", cfg);

    // NOTE: no cleanup passes may run between inlining and region formation.
    // The inline-site records anchor on result phis and block identities
    // that GVN's phi collapsing, DCE, and block merging would destroy;
    // formation's un-inlining (Steps 2 and 5) needs them intact.

    let formation = if cfg.atomic && !m.opaque {
        let region_cfg = cfg.region_for(method);
        let res = form_atomic_regions(&mut f, &sites, &region_cfg);
        verify_after(&f, "formation", cfg);
        if cfg.sle {
            sle::run(&mut f);
            verify_after(&f, "sle", cfg);
        }
        if cfg.safepoint_elision {
            safepoint::run(&mut f);
            verify_after(&f, "safepoint", cfg);
        }
        if cfg.partial_unroll {
            unroll::run(&mut f, &region_cfg);
            verify_after(&f, "unroll", cfg);
        }
        Some(res)
    } else {
        None
    };

    // The payoff rounds: with cold paths converted to asserts, plain
    // redundancy elimination now performs speculative optimization.
    for _ in 0..cfg.opt_rounds {
        let mut changed = 0;
        changed += gvn::run(&mut f).total();
        verify_after(&f, "gvn", cfg);
        changed += constprop::run(&mut f).folded;
        verify_after(&f, "constprop", cfg);
        changed += dce::run(&mut f);
        verify_after(&f, "dce", cfg);
        changed += simplify::run(&mut f);
        verify_after(&f, "simplify", cfg);
        if changed == 0 {
            break;
        }
    }
    if cfg.postdom_checkelim {
        checkelim::run(&mut f);
        verify_after(&f, "checkelim", cfg);
        dce::run(&mut f);
    }
    verify(&f).unwrap_or_else(|e| panic!("final verify ({}): {e}\n{}", cfg.name, f.display()));

    CompiledMethod {
        func: f,
        sites,
        formation,
    }
}

/// Debug builds verify the IR after every pass of [`compile_method`]; the
/// panic names the pass and the configuration.
fn verify_after(f: &Func, pass: &str, cfg: &CompilerConfig) {
    if cfg!(debug_assertions) {
        if let Err(e) = verify(f) {
            panic!("verify after {pass} ({}): {e}\n{}", cfg.name, f.display());
        }
    }
}

/// Compiles every method of the program under `cfg`.
pub fn compile_program(
    program: &Program,
    profile: &Profile,
    cfg: &CompilerConfig,
) -> HashMap<MethodId, CompiledMethod> {
    program
        .method_ids()
        .map(|m| (m, compile_method(program, profile, m, cfg)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_distinct() {
        let cs = CompilerConfig::paper_configs();
        assert_eq!(cs.len(), 4);
        assert!(!cs[0].atomic && cs[1].atomic && !cs[2].atomic && cs[3].atomic);
        assert!(cs[2].inline.baseline_budget > cs[0].inline.baseline_budget);
        let names: Vec<_> = cs.iter().map(|c| c.name).collect();
        assert_eq!(
            names,
            vec![
                "no-atomic",
                "atomic",
                "no-atomic+aggr-inline",
                "atomic+aggr-inline"
            ]
        );
    }

    #[test]
    fn per_method_exclusions() {
        let mut c = CompilerConfig::atomic();
        let m0 = MethodId(0);
        let m1 = MethodId(1);
        assert!(c.region_for(m0).excluded_boundaries.is_empty());
        c.exclude(m0, [4, 9]);
        c.exclude(m0, [4, 11]);
        let r0 = c.region_for(m0);
        assert_eq!(
            r0.excluded_boundaries.iter().copied().collect::<Vec<_>>(),
            vec![4, 9, 11]
        );
        // Exclusions are per-method: other methods see the stock config.
        assert!(c.region_for(m1).excluded_boundaries.is_empty());
        assert_eq!(c.region_for(m1), c.region);
    }
}

#[cfg(test)]
mod pipeline_tests {
    use super::*;
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::{BinOp, CmpOp};
    use hasp_vm::interp::Interp;

    /// An outer hot loop whose body contains a small store-only inner loop:
    /// the inner loop encapsulates whole inside the per-iteration region and
    /// the partial unroller doubles its body.
    #[test]
    fn partial_unroll_fires_through_the_pipeline() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let cap = m.imm(64);
        let arr = m.reg();
        m.new_array(arr, cap);
        let i = m.imm(0);
        let n = m.imm(3000);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        {
            // Inner store-only loop: 8 iterations.
            let j = m.imm(0);
            let k8 = m.imm(8);
            let ihead = m.new_label();
            let iexit = m.new_label();
            m.bind(ihead);
            m.branch(CmpOp::Ge, j, k8, iexit);
            let slot = m.reg();
            let mask = m.imm(63);
            m.bin(BinOp::Add, slot, i, j);
            m.bin(BinOp::And, slot, slot, mask);
            m.astore(arr, slot, i);
            m.bin(BinOp::Add, j, j, one);
            m.jump(ihead);
            m.bind(iexit);
        }
        m.bin(BinOp::Add, i, i, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        let probe = m.imm(7);
        let v = m.reg();
        m.aload(v, arr, probe);
        m.checksum(v);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);

        let mut interp = Interp::new(&p).with_profiling();
        interp.set_fuel(10_000_000);
        interp.run(&[]).unwrap();

        let with = compile_method(&p, &interp.profile, entry, &CompilerConfig::atomic());
        let mut no_unroll_cfg = CompilerConfig::atomic();
        no_unroll_cfg.partial_unroll = false;
        let without = compile_method(&p, &interp.profile, entry, &no_unroll_cfg);

        let stores = |f: &Func| -> usize {
            f.block_ids()
                .iter()
                .filter(|b| f.block(**b).region.is_some())
                .map(|b| {
                    f.block(*b)
                        .insts
                        .iter()
                        .filter(|i| matches!(i.op, hasp_ir::Op::StoreElem { .. }))
                        .count()
                })
                .sum()
        };
        assert!(
            stores(&with.func) > stores(&without.func),
            "unrolling must duplicate the in-region store ({} vs {})",
            stores(&with.func),
            stores(&without.func)
        );
    }

    /// The safepoint-elision pass replaces in-loop polls with one yield-flag
    /// load per region (paper §6.4) when the pipeline runs end to end.
    #[test]
    fn safepoint_elision_fires_through_the_pipeline() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let cap = m.imm(64);
        let arr = m.reg();
        m.new_array(arr, cap);
        let i = m.imm(0);
        let n = m.imm(5000);
        let one = m.imm(1);
        let mask = m.imm(63);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        {
            let j = m.imm(0);
            let k6 = m.imm(6);
            let ihead = m.new_label();
            let iexit = m.new_label();
            m.bind(ihead);
            m.branch(CmpOp::Ge, j, k6, iexit);
            let slot = m.reg();
            m.bin(BinOp::Add, slot, i, j);
            m.bin(BinOp::And, slot, slot, mask);
            m.astore(arr, slot, j);
            m.bin(BinOp::Add, j, j, one);
            m.safepoint(); // inner-loop poll: elidable inside the region
            m.jump(ihead);
            m.bind(iexit);
        }
        m.bin(BinOp::Add, i, i, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        let probe = m.imm(3);
        let v = m.reg();
        m.aload(v, arr, probe);
        m.checksum(v);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut interp = Interp::new(&p).with_profiling();
        interp.set_fuel(10_000_000);
        interp.run(&[]).unwrap();

        let with = compile_method(&p, &interp.profile, entry, &CompilerConfig::atomic());
        let mut off = CompilerConfig::atomic();
        off.safepoint_elision = false;
        let without = compile_method(&p, &interp.profile, entry, &off);
        let polls = |f: &Func| -> usize {
            f.block_ids()
                .iter()
                .filter(|b| f.block(**b).region.is_some())
                .map(|b| {
                    f.block(*b)
                        .insts
                        .iter()
                        .filter(|i| matches!(i.op, hasp_ir::Op::Safepoint))
                        .count()
                })
                .sum()
        };
        assert!(
            polls(&with.func) < polls(&without.func),
            "elision must remove in-region polls ({} vs {})",
            polls(&with.func),
            polls(&without.func)
        );
    }
}
