//! Profile-guided inlining (Step 1 of region formation).
//!
//! Two budgets exist, mirroring the paper's setup:
//!
//! * **Baseline** sites fit the ordinary inliner's static-size budget and are
//!   kept on all paths (all four compiler configurations get them; the
//!   "+aggressive inlining" configurations multiply this budget by five).
//! * **Aggressive** sites are admitted by their *warm* size only — cold paths
//!   will be pruned from atomic regions, so they cost nothing speculatively —
//!   and are later removed from non-speculative paths (Step 5 in
//!   `hasp-core`). Per the paper, a callee containing an apparently
//!   polymorphic call site is not partially inlined (the jython `getitem`
//!   pathology), unless `force_dominant_receiver` overrides it.
//!
//! Virtual calls are devirtualized behind a class guard when the site's
//! receiver histogram is monomorphic (or dominant, under
//! `force_dominant_receiver`).

use hasp_core::{InlineBudget, InlineSite, SiteDispatch};
use hasp_ir::{translate, BlockId, BlockSet, Func, Inst, Op, Term, VReg};
use hasp_vm::bytecode::{ClassId, MethodId, SlotId};
use hasp_vm::class::Program;
use hasp_vm::profile::Profile;
use hasp_vm::CmpOp;

/// Inliner tunables.
#[derive(Debug, Clone, PartialEq)]
pub struct InlineOptions {
    /// Static-size budget (HIR ops) for baseline inlining.
    pub baseline_budget: u64,
    /// Warm-size budget for aggressive (region-only) inlining.
    pub aggressive_budget: u64,
    /// Whether aggressive sites are admitted at all (atomic configs only).
    pub aggressive: bool,
    /// Maximum nesting depth of inlined bodies.
    pub max_depth: usize,
    /// Hard cap on the function's total size after inlining.
    pub max_function_ops: u64,
    /// Devirtualize through the *dominant* receiver class (share ≥ 95%) even
    /// when the site is not perfectly monomorphic — the paper's grey-bar
    /// jython experiment.
    pub force_dominant_receiver: bool,
}

impl Default for InlineOptions {
    fn default() -> Self {
        InlineOptions {
            baseline_budget: 40,
            aggressive_budget: 250,
            aggressive: false,
            max_depth: 4,
            max_function_ops: 4000,
            force_dominant_receiver: false,
        }
    }
}

impl InlineOptions {
    /// The paper's "+aggressive inlining" configurations: thresholds × 5.
    pub fn with_aggressive_threshold(mut self) -> Self {
        self.baseline_budget *= 5;
        self.aggressive_budget *= 5;
        self
    }
}

/// Runs the inliner on `f`. Returns the inline sites created (for region
/// formation's Steps 2 and 5).
pub fn run(
    f: &mut Func,
    program: &Program,
    profile: &Profile,
    opts: &InlineOptions,
) -> Vec<InlineSite> {
    let mut sites: Vec<InlineSite> = Vec::new();
    // The method each block was inlined from (the function's own blocks
    // have none).
    let mut origin: Vec<Option<MethodId>> = Vec::new();
    let origin_of =
        |origin: &[Option<MethodId>], b: BlockId| origin.get(b.0 as usize).copied().flatten();
    // (block, first inst index to scan, depth)
    let mut work: Vec<(BlockId, usize, usize)> =
        f.block_ids().into_iter().rev().map(|b| (b, 0, 0)).collect();

    while let Some((b, start, depth)) = work.pop() {
        if f.block(b).dead {
            continue;
        }
        let mut i = start;
        while i < f.block(b).insts.len() {
            let inst = &f.block(b).insts[i];
            let dst = inst.dst;
            let site_freq = f.block(b).freq;
            let decision = match &inst.op {
                Op::Call { method, args } => decide_direct(
                    f, program, profile, opts, *method, depth, site_freq,
                )
                .map(|budget| Plan {
                    callee: *method,
                    args: args.clone(),
                    dispatch: SiteDispatch::Direct,
                    guard: None,
                    budget,
                }),
                Op::CallVirtual {
                    slot,
                    recv,
                    args,
                    site,
                } => {
                    let caller = origin_of(&origin, b).unwrap_or(f.method);
                    decide_virtual(
                        f, program, profile, opts, caller, *slot, *site, depth, site_freq,
                    )
                    .map(|(callee, class, share, budget)| {
                        let mut full_args = vec![*recv];
                        full_args.extend_from_slice(args);
                        Plan {
                            callee,
                            args: full_args,
                            dispatch: SiteDispatch::Virtual { slot: *slot },
                            guard: Some((class, share, *slot, *site)),
                            budget,
                        }
                    })
                }
                _ => None,
            };
            let Some(plan) = decision else {
                i += 1;
                continue;
            };
            if f.size() > opts.max_function_ops {
                return sites;
            }
            let site = splice(f, program, profile, b, i, dst, &plan);
            // Enclosing sites absorb the new blocks.
            for s in &mut sites {
                if s.blocks.contains(b) {
                    s.blocks.union_with(&site.blocks);
                    s.blocks.insert(site.cont);
                }
            }
            // Scan the body (deeper) and the continuation (same depth).
            origin.resize(f.block_count(), None);
            for nb in site.blocks.iter() {
                origin[nb.0 as usize] = Some(plan.callee);
                work.push((nb, 0, depth + 1));
            }
            origin[site.cont.0 as usize] = Some(origin_of(&origin, b).unwrap_or(f.method));
            work.push((site.cont, 0, depth));
            sites.push(site);
            break; // rest of `b` moved to the continuation
        }
    }
    sites
}

struct Plan {
    callee: MethodId,
    args: Vec<VReg>,
    dispatch: SiteDispatch,
    /// (expected class, profile share, slot, site pc) for guarded virtual.
    guard: Option<(ClassId, f64, SlotId, u32)>,
    budget: InlineBudget,
}

fn decide_direct(
    f: &Func,
    program: &Program,
    profile: &Profile,
    opts: &InlineOptions,
    callee: MethodId,
    depth: usize,
    site_freq: u64,
) -> Option<InlineBudget> {
    if site_freq == 0 || depth >= opts.max_depth || callee == f.method {
        return None;
    }
    let m = program.method(callee);
    if m.opaque {
        return None;
    }
    budget_for(program, profile, opts, callee)
}

#[allow(clippy::too_many_arguments)]
fn decide_virtual(
    f: &Func,
    program: &Program,
    profile: &Profile,
    opts: &InlineOptions,
    caller: MethodId,
    slot: SlotId,
    site: u32,
    depth: usize,
    site_freq: u64,
) -> Option<(MethodId, ClassId, f64, InlineBudget)> {
    if site_freq == 0 || depth >= opts.max_depth || site == u32::MAX {
        return None;
    }
    let prof = profile.method(caller)?;
    let (class, share) = if opts.force_dominant_receiver {
        prof.dominant_receiver(site as usize)
            .filter(|(_, s)| *s >= 0.95)?
    } else {
        (prof.monomorphic_receiver(site as usize)?, 1.0)
    };
    let callee = program.resolve_virtual(class, slot);
    if callee == f.method || program.method(callee).opaque {
        return None;
    }
    let budget = budget_for(program, profile, opts, callee)?;
    Some((callee, class, share, budget))
}

/// Classifies a callee against the two budgets.
fn budget_for(
    program: &Program,
    profile: &Profile,
    opts: &InlineOptions,
    callee: MethodId,
) -> Option<InlineBudget> {
    let ir = translate(program, callee, profile.method(callee));
    let static_ops = ir.size();
    if static_ops <= opts.baseline_budget {
        return Some(InlineBudget::Baseline);
    }
    if !opts.aggressive {
        return None;
    }
    // Warm size: blocks that actually executed.
    let warm_ops: u64 = ir
        .block_ids()
        .iter()
        .filter(|b| ir.block(**b).freq > 0)
        .map(|b| ir.block(*b).insts.len() as u64 + 1)
        .sum();
    if warm_ops == 0 || warm_ops > opts.aggressive_budget {
        return None;
    }
    // "Our algorithm will not partially inline methods containing
    // polymorphic calls" (§6.1) — unless the dominant-receiver override is
    // on.
    if !opts.force_dominant_receiver {
        if let Some(p) = profile.method(callee) {
            let polymorphic = p.receivers.values().any(|h| h.len() > 1);
            if polymorphic {
                return None;
            }
        }
    }
    Some(InlineBudget::Aggressive)
}

/// Splices the callee body in place of instruction `idx` of block `b`.
fn splice(
    f: &mut Func,
    program: &Program,
    profile: &Profile,
    b: BlockId,
    idx: usize,
    call_dst: Option<VReg>,
    plan: &Plan,
) -> InlineSite {
    let callee_ir = translate(program, plan.callee, profile.method(plan.callee));
    let site_freq = f.block(b).freq;
    let invocations = profile
        .method(plan.callee)
        .map(|p| p.invocations)
        .unwrap_or(0);
    let scale = if invocations == 0 {
        0.0
    } else {
        site_freq as f64 / invocations as f64
    };

    // 1. Split at the call; the call instruction itself disappears.
    let tail: Vec<Inst> = f.block_mut(b).insts.drain(idx..).collect();
    let caller_term = std::mem::replace(&mut f.block_mut(b).term, Term::Return(None));
    let cont = f.add_block(caller_term);
    f.block_mut(cont).insts = tail[1..].to_vec();
    f.block_mut(cont).freq = site_freq;
    for k in 0..f.block(cont).term.succ_count() {
        let s = f.block(cont).term.succ(k);
        for inst in &mut f.block_mut(s).insts {
            if let Op::Phi(ins) = &mut inst.op {
                for (p, _) in ins.iter_mut() {
                    if *p == b {
                        *p = cont;
                    }
                }
            }
        }
    }

    // 2. Copy the callee body. `vmap` maps callee values (parameters to
    // the call's arguments), `bmap` callee blocks.
    let mut vmap: Vec<Option<VReg>> = vec![None; callee_ir.vreg_count() as usize];
    for (i, arg) in plan.args.iter().enumerate() {
        vmap[i] = Some(*arg);
    }
    let callee_blocks = callee_ir.block_ids();
    let mut bmap: Vec<BlockId> = vec![BlockId(u32::MAX); callee_ir.block_count()];
    for &cb in &callee_blocks {
        bmap[cb.0 as usize] = f.add_block(Term::Return(None));
    }
    let params = u32::from(callee_ir.params);
    let mut exits: Vec<(BlockId, Option<VReg>)> = Vec::new();
    let mut targets: Vec<BlockId> = Vec::new();
    for &cb in &callee_blocks {
        let nb = bmap[cb.0 as usize];
        let mut insts = callee_ir.block(cb).insts.clone();
        for inst in &mut insts {
            if let Some(d) = inst.dst {
                inst.dst = Some(*vmap[d.0 as usize].get_or_insert_with(|| f.vreg()));
            }
            if let Op::Phi(ins) = &mut inst.op {
                for (p, _) in ins.iter_mut() {
                    *p = bmap[p.0 as usize];
                }
            }
            inst.op
                .for_each_arg_mut(|a| map_value(&mut vmap, params, f, a));
        }
        let mut term = callee_ir.block(cb).term.clone();
        term.for_each_arg_mut(|a| map_value(&mut vmap, params, f, a));
        match term {
            Term::Return(v) => {
                exits.push((nb, v));
                f.block_mut(nb).term = Term::Jump(cont);
            }
            mut other => {
                targets.clear();
                targets.extend(other.succs());
                for &s in &targets {
                    other.retarget(s, bmap[s.0 as usize]);
                }
                f.block_mut(nb).term = other;
            }
        }
        f.block_mut(nb).insts = insts;
        f.block_mut(nb).freq = (callee_ir.block(cb).freq as f64 * scale) as u64;
        scale_counts(&mut f.block_mut(nb).term, scale);
    }
    assert!(!exits.is_empty(), "callee {} never returns", callee_ir.name);
    let entry_copy = bmap[callee_ir.entry.0 as usize];
    f.block_mut(entry_copy).freq = site_freq;

    // 3. Result phi in the continuation.
    let mut result_inputs: Vec<(BlockId, VReg)> = Vec::new();
    if call_dst.is_some() {
        for (eb, v) in &exits {
            let val = match v {
                Some(v) => *v,
                None => {
                    let z = f.vreg();
                    f.block_mut(*eb).insts.push(Inst::with_dst(z, Op::Const(0)));
                    z
                }
            };
            result_inputs.push((*eb, val));
        }
    }

    // 4. Wire the pre block (plus the class guard for virtual sites).
    let mut blocks: BlockSet = callee_blocks.iter().map(|cb| bmap[cb.0 as usize]).collect();
    match &plan.guard {
        None => {
            f.block_mut(b).term = Term::Jump(entry_copy);
        }
        Some((class, share, slot, site)) => {
            let cls = f.vreg();
            f.block_mut(b)
                .insts
                .push(Inst::with_dst(cls, Op::LoadClass(plan.args[0])));
            let kc = f.vreg();
            f.block_mut(b)
                .insts
                .push(Inst::with_dst(kc, Op::Const(i64::from(class.0))));
            // Guard-miss path: the original virtual call.
            let slow = f.add_block(Term::Jump(cont));
            let slow_dst = call_dst.map(|_| f.vreg());
            f.block_mut(slow).insts.push(Inst {
                dst: slow_dst,
                op: Op::CallVirtual {
                    slot: *slot,
                    recv: plan.args[0],
                    args: plan.args[1..].to_vec(),
                    site: *site,
                },
            });
            let miss = ((1.0 - share) * site_freq as f64) as u64;
            f.block_mut(slow).freq = miss;
            f.block_mut(b).term = Term::Branch {
                op: CmpOp::Eq,
                a: cls,
                b: kc,
                t: entry_copy,
                f: slow,
                t_count: site_freq.saturating_sub(miss),
                f_count: miss,
            };
            if let Some(sd) = slow_dst {
                result_inputs.push((slow, sd));
            }
            blocks.insert(slow);
        }
    }
    if let Some(d) = call_dst {
        f.block_mut(cont)
            .insts
            .insert(0, Inst::with_dst(d, Op::Phi(result_inputs)));
    }

    InlineSite {
        callee: plan.callee,
        pre: b,
        entry: entry_copy,
        cont,
        blocks,
        dst: call_dst,
        args: plan.args.clone(),
        dispatch: plan.dispatch.clone(),
        budget: plan.budget,
    }
}

/// Maps callee value `a` through `vmap`, allocating a fresh caller value
/// for a non-parameter seen first as an operand (a loop phi's forward
/// reference).
fn map_value(vmap: &mut [Option<VReg>], params: u32, f: &mut Func, a: &mut VReg) {
    match vmap[a.0 as usize] {
        Some(n) => *a = n,
        None if a.0 >= params => {
            let fresh = f.vreg();
            vmap[a.0 as usize] = Some(fresh);
            *a = fresh;
        }
        None => {}
    }
}

fn scale_counts(t: &mut Term, scale: f64) {
    let s = |c: &mut u64| *c = (*c as f64 * scale) as u64;
    match t {
        Term::Branch {
            t_count, f_count, ..
        } => {
            s(t_count);
            s(f_count);
        }
        Term::Switch {
            targets, default, ..
        } => {
            for (_, c) in targets.iter_mut() {
                s(c);
            }
            s(&mut default.1);
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::verify;
    use hasp_vm::builder::ProgramBuilder;
    use hasp_vm::bytecode::BinOp;
    use hasp_vm::interp::Interp;

    /// main calls double(x) in a hot loop; B.get is virtual & monomorphic.
    fn program() -> Program {
        let mut pb = ProgramBuilder::new();
        let get_a = pb.declare("A.get", 1);
        let get_b = pb.declare("B.get", 1);
        let a = pb.add_class("A", None, &["v"]);
        let slot = pb.add_slot(a, get_a);
        let bcls = pb.add_class("B", Some(a), &[]);
        pb.override_slot(bcls, slot, get_b);
        let fv = pb.field(a, "v");

        for name in ["A.get", "B.get"] {
            let mut m = pb.method(name, 1);
            let r = m.reg();
            m.get_field(r, m.arg(0), fv);
            if name == "B.get" {
                let one = m.imm(1);
                m.bin(BinOp::Add, r, r, one);
            }
            m.ret(Some(r));
            m.finish(&mut pb);
        }

        let mut d = pb.method("double", 1);
        let two = d.imm(2);
        let r = d.reg();
        d.bin(BinOp::Mul, r, d.arg(0), two);
        d.ret(Some(r));
        let double = d.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, bcls);
        let seven = m.imm(7);
        m.put_field(o, fv, seven);
        let sum = m.imm(0);
        let i = m.imm(0);
        let n = m.imm(200);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        let dv = m.reg();
        m.call(Some(dv), double, &[i]);
        let gv = m.reg();
        m.call_virtual(Some(gv), slot, o, &[]);
        m.bin(BinOp::Add, sum, sum, dv);
        m.bin(BinOp::Add, sum, sum, gv);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.checksum(sum);
        m.ret(Some(sum));
        let entry = m.finish(&mut pb);
        pb.finish(entry)
    }

    fn profiled(p: &Program) -> Profile {
        let mut interp = Interp::new(p).with_profiling();
        interp.set_fuel(10_000_000);
        interp.run(&[]).unwrap();
        interp.profile
    }

    #[test]
    fn inlines_direct_and_guarded_virtual() {
        let p = program();
        let prof = profiled(&p);
        let entry = p.entry();
        let mut f = translate(&p, entry, prof.method(entry));
        verify(&f).unwrap();
        let sites = run(&mut f, &p, &prof, &InlineOptions::default());
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert!(sites.len() >= 2, "both calls inlined, got {}", sites.len());
        // No hot calls remain (the guard-miss virtual call survives but is cold).
        let hot_calls: usize = f
            .block_ids()
            .iter()
            .filter(|b| f.block(**b).freq > 0)
            .map(|b| f.block(*b).insts.iter().filter(|i| i.op.is_call()).count())
            .sum();
        assert_eq!(hot_calls, 0, "{}", f.display());
        // A class guard exists.
        let has_guard = f.block_ids().iter().any(|b| {
            f.block(*b)
                .insts
                .iter()
                .any(|i| matches!(i.op, Op::LoadClass(_)))
        });
        assert!(has_guard);
        // Sites carry correct dispatch kinds.
        assert!(sites.iter().any(|s| s.dispatch == SiteDispatch::Direct));
        assert!(sites
            .iter()
            .any(|s| matches!(s.dispatch, SiteDispatch::Virtual { .. })));
    }

    #[test]
    fn opaque_methods_not_inlined() {
        let mut pb = ProgramBuilder::new();
        let mut op = pb.method("native", 1);
        op.set_opaque();
        op.ret(Some(op.arg(0)));
        let native = op.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let x = m.imm(3);
        let r = m.reg();
        let head = m.new_label();
        let exit = m.new_label();
        let i = m.imm(0);
        let n = m.imm(100);
        let one = m.imm(1);
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        m.call(Some(r), native, &[x]);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.ret(Some(r));
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let prof = profiled(&p);
        let mut f = translate(&p, entry, prof.method(entry));
        let sites = run(&mut f, &p, &prof, &InlineOptions::default());
        assert!(sites.is_empty());
    }

    #[test]
    fn functional_equivalence_after_inlining_via_structure() {
        // Inlining preserves verification invariants on a nested-call chain.
        let p = program();
        let prof = profiled(&p);
        let entry = p.entry();
        let mut f = translate(&p, entry, prof.method(entry));
        let opts = InlineOptions {
            max_depth: 3,
            ..Default::default()
        };
        run(&mut f, &p, &prof, &opts);
        crate::gvn::run(&mut f);
        crate::constprop::run(&mut f);
        crate::dce::run(&mut f);
        crate::simplify::run(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
    }

    #[test]
    fn aggressive_budget_admits_larger_callees() {
        // A callee bigger than baseline budget: rejected normally, accepted
        // aggressively.
        let mut pb = ProgramBuilder::new();
        let mut big = pb.method("big", 1);
        let mut acc = big.imm(0);
        for k in 0..60 {
            let c = big.imm(k);
            let t = big.reg();
            big.bin(BinOp::Add, t, acc, c);
            acc = t;
        }
        big.ret(Some(acc));
        let bigm = big.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let i = m.imm(0);
        let n = m.imm(500);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        let r = m.reg();
        m.call(Some(r), bigm, &[i]);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let prof = profiled(&p);

        let mut f1 = translate(&p, entry, prof.method(entry));
        let base = run(&mut f1, &p, &prof, &InlineOptions::default());
        assert!(base.is_empty(), "callee exceeds baseline budget");

        let mut f2 = translate(&p, entry, prof.method(entry));
        let opts = InlineOptions {
            aggressive: true,
            ..Default::default()
        };
        let aggr = run(&mut f2, &p, &prof, &opts);
        assert_eq!(aggr.len(), 1);
        assert_eq!(aggr[0].budget, InlineBudget::Aggressive);
        verify(&f2).unwrap();
    }
}
