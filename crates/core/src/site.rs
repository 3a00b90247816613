//! Inline-site records and un-inlining.
//!
//! The inliner (in `hasp-opt`) records one [`InlineSite`] per splice. Region
//! formation consumes them twice (paper §4, Algorithm 1):
//!
//! * Step 2 *prunes* inlined methods that contain selected loop boundaries or
//!   calls reachable on warm paths — `uninline` restores the original call.
//! * Step 5 removes aggressively-inlined methods from *non-speculative*
//!   paths: the speculative region copies keep the (partially) inlined hot
//!   body, while the original blocks are replaced by the call — this is what
//!   makes partial inlining almost trivial with atomic regions.

use hasp_ir::{BlockId, BlockSet, Func, Inst, Op, Term, VReg};
use hasp_vm::bytecode::{MethodId, SlotId};

/// How the call site dispatches when restored by un-inlining.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SiteDispatch {
    /// A direct call.
    Direct,
    /// A devirtualized virtual call: un-inlining re-emits `CallVirtual`
    /// through `slot` (the class guard is discarded).
    Virtual {
        /// Original vtable slot.
        slot: SlotId,
    },
}

/// The class of budget the inliner charged a site to. Baseline sites are
/// retained on all paths; aggressive sites exist only to enlarge atomic
/// regions and are removed from non-speculative paths in Step 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InlineBudget {
    /// Within the baseline inliner's budget: kept everywhere.
    Baseline,
    /// Beyond the baseline budget: kept only inside atomic regions.
    Aggressive,
}

/// One inlined call site.
#[derive(Debug, Clone)]
pub struct InlineSite {
    /// Callee method.
    pub callee: MethodId,
    /// The block ending with the edge into the inlined body (for guarded
    /// virtual inlines this block also evaluates the class guard).
    pub pre: BlockId,
    /// Entry block of the inlined body.
    pub entry: BlockId,
    /// Continuation block (created by splitting at the call).
    pub cont: BlockId,
    /// All body blocks (including `entry` and any guard-miss call block).
    pub blocks: BlockSet,
    /// The SSA value holding the call result — always defined by a phi in
    /// `cont` (possibly single-input), so un-inlining can redirect it.
    pub dst: Option<VReg>,
    /// Argument values (for virtual sites, `args[0]` is the receiver).
    pub args: Vec<VReg>,
    /// Dispatch kind for restoration.
    pub dispatch: SiteDispatch,
    /// Budget class.
    pub budget: InlineBudget,
}

impl InlineSite {
    /// True if any of the given boundary blocks falls inside this site's
    /// body (`hasSelectedLoop` in Algorithm 1 and the Step-5 safety check).
    pub fn contains_any(&self, blocks: &BlockSet) -> bool {
        !self.blocks.is_disjoint(blocks)
    }

    /// True if the site's body is still wired into the CFG (its entry is
    /// reachable); outer un-inlines can strand inner sites.
    pub fn is_live(&self, f: &Func) -> bool {
        let reach = f.rpo();
        reach.contains(&self.entry) && reach.contains(&self.pre)
    }
}

/// Transactional `UNINLINEMETHOD`: attempts [`uninline`] on a scratch copy
/// and commits only if the result verifies. Un-inlining is unsafe when a
/// region copy's exit or abort edge keeps part of the original body alive
/// (its internal values would dangle); such sites simply stay fully inlined
/// — correct, at some code-size cost. Returns whether the un-inline
/// committed.
pub fn uninline_checked(f: &mut Func, site: &InlineSite) -> bool {
    let mut trial = f.clone();
    uninline(&mut trial, site);
    if hasp_ir::verify(&trial).is_err() {
        return false;
    }
    *f = trial;
    true
}

/// `UNINLINEMETHOD`: replaces the inlined body with the original call on the
/// current (non-speculative) path. Speculative copies of the body made by
/// region replication are untouched. The body blocks become unreachable and
/// are tombstoned. Prefer [`uninline_checked`] unless the caller knows the
/// body is exclusively reachable through `site.pre`.
pub fn uninline(f: &mut Func, site: &InlineSite) {
    // Result slot and where body exits currently land (cont, or the begin
    // block of cont if cont became a region boundary).
    let cont_target = find_body_exit_target(f, site);

    // Fresh call block.
    let res = site.dst.map(|_| f.vreg());
    let call_inst = match &site.dispatch {
        SiteDispatch::Direct => Inst {
            dst: res,
            op: Op::Call {
                method: site.callee,
                args: site.args.clone(),
            },
        },
        SiteDispatch::Virtual { slot } => Inst {
            dst: res,
            op: Op::CallVirtual {
                slot: *slot,
                recv: site.args[0],
                args: site.args[1..].to_vec(),
                // Restored calls have no bytecode pc; profiles no longer apply.
                site: u32::MAX,
            },
        },
    };
    let cb = f.add_block(Term::Jump(cont_target));
    f.block_mut(cb).insts.push(call_inst);
    f.block_mut(cb).freq = f.block(site.pre).freq;

    // The pre block now flows straight to the call (discarding any guard
    // branch into the body).
    match f.block(site.pre).term.clone() {
        Term::Jump(_) | Term::Branch { .. } => {
            f.block_mut(site.pre).term = Term::Jump(cb);
        }
        other => panic!("unexpected pre-block terminator {other:?}"),
    }

    // Rewire the result phi: the restored call contributes its result. Body
    // exits that die become unreachable and `remove_unreachable` prunes their
    // phi inputs; exits that survive (a region copy may commit into the
    // middle of the original body) keep theirs.
    if let (Some(dst), Some(res)) = (site.dst, res) {
        let def = find_def(f, dst).expect("result value must have a definition");
        let (db, di) = def;
        match &mut f.block_mut(db).insts[di].op {
            Op::Phi(ins) => ins.push((cb, res)),
            other => panic!("result of inlined site defined by {other:?}, expected phi"),
        }
    }

    f.remove_unreachable();
    // A single-input result phi degenerates to a copy.
    if let Some(dst) = site.dst {
        if let Some((db, di)) = find_def(f, dst) {
            let single = match &f.block(db).insts[di].op {
                Op::Phi(ins) if ins.len() == 1 => Some(ins[0].1),
                _ => None,
            };
            if let Some(v) = single {
                f.block_mut(db).insts[di].op = Op::Copy(v);
            }
        }
    }
}

/// Where the inlined body's exit edges currently land: `cont` itself, or the
/// region-begin block that took over `cont`'s incoming edges. Body blocks are
/// searched in `BlockId` order, so the answer does not depend on hash order.
fn find_body_exit_target(f: &Func, site: &InlineSite) -> BlockId {
    for b in site.blocks.iter() {
        if f.block(b).dead {
            continue;
        }
        if let Some(s) = f.succs(b).find(|&s| !site.blocks.contains(s)) {
            return s;
        }
    }
    site.cont
}

fn find_def(f: &Func, v: VReg) -> Option<(BlockId, usize)> {
    for b in f.block_ids() {
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            if inst.dst == Some(v) {
                return Some((b, i));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::verify;
    use hasp_vm::bytecode::BinOp;

    /// Hand-builds the CFG an inliner would produce for
    /// `x = callee(a); return x + a` where callee is `return arg * 2`.
    fn inlined_func() -> (Func, InlineSite) {
        let mut f = Func::new("caller", MethodId(0), 1);
        let a = VReg(0);
        // pre (entry) -> body -> cont
        let cont = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(cont));
        f.block_mut(f.entry).term = Term::Jump(body);
        let two = f.vreg();
        let r = f.vreg();
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(two, Op::Const(2)));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(r, Op::Bin(BinOp::Mul, a, two)));
        let x = f.vreg();
        let out = f.vreg();
        f.block_mut(cont)
            .insts
            .push(Inst::with_dst(x, Op::Phi(vec![(body, r)])));
        f.block_mut(cont)
            .insts
            .push(Inst::with_dst(out, Op::Bin(BinOp::Add, x, a)));
        f.block_mut(cont).term = Term::Return(Some(out));
        f.block_mut(f.entry).freq = 100;
        f.block_mut(body).freq = 100;
        f.block_mut(cont).freq = 100;
        let site = InlineSite {
            callee: MethodId(7),
            pre: f.entry,
            entry: body,
            cont,
            blocks: [body].into_iter().collect(),
            dst: Some(x),
            args: vec![a],
            dispatch: SiteDispatch::Direct,
            budget: InlineBudget::Aggressive,
        };
        (f, site)
    }

    #[test]
    fn uninline_restores_direct_call() {
        let (mut f, site) = inlined_func();
        verify(&f).unwrap();
        uninline(&mut f, &site);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // The body block is gone; a call block exists.
        assert!(f.block(site.entry).dead);
        let has_call = f.block_ids().iter().any(|b| {
            f.block(*b)
                .insts
                .iter()
                .any(|i| matches!(i.op, Op::Call { method, .. } if method == MethodId(7)))
        });
        assert!(has_call, "{}", f.display());
        // The result phi degenerated to a copy of the call's result.
        let x_def_is_copy = f
            .block_ids()
            .iter()
            .flat_map(|b| f.block(*b).insts.clone())
            .any(|i| i.dst == site.dst && matches!(i.op, Op::Copy(_)));
        assert!(x_def_is_copy, "{}", f.display());
    }

    #[test]
    fn uninline_virtual_reemits_virtual_call() {
        let (mut f, mut site) = inlined_func();
        site.dispatch = SiteDispatch::Virtual { slot: SlotId(3) };
        uninline(&mut f, &site);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        let has_vcall = f.block_ids().iter().any(|b| {
            f.block(*b).insts.iter().any(|i| {
                matches!(
                    i.op,
                    Op::CallVirtual {
                        slot: SlotId(3),
                        ..
                    }
                )
            })
        });
        assert!(has_vcall, "{}", f.display());
    }

    #[test]
    fn contains_any_detects_boundaries() {
        let (_, site) = inlined_func();
        let inside: BlockSet = [site.entry].into_iter().collect();
        let outside: BlockSet = [site.cont].into_iter().collect();
        assert!(site.contains_any(&inside));
        assert!(!site.contains_any(&outside));
    }
}
