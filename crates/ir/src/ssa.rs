//! SSA construction (Cytron-style: iterated dominance frontiers + dominator
//! tree renaming).
//!
//! Translation produces code where bytecode registers `VReg(0..num_vars)` are
//! mutable variables; this pass rewrites them into SSA form with explicit
//! phis. Temporaries allocated during translation are already single-def and
//! left untouched.

use crate::dense::DenseLists;
use crate::dom::DomTree;
use crate::func::Func;
use crate::instr::{BlockId, Inst, Op, Term, VReg};

/// "No variable" in the per-block stamp tables.
const NONE: u32 = u32::MAX;

/// Rewrites variables `VReg(0)..VReg(num_vars)` into SSA form.
///
/// Requires every variable to be defined before use on all paths; the
/// translator guarantees this by zero-initializing non-argument variables in
/// the entry block (arguments are live-in at entry, and are variables:
/// `params <= num_vars`).
pub fn construct(f: &mut Func, num_vars: u32) {
    debug_assert!(u32::from(f.params) <= num_vars, "parameters are variables");
    let dt = DomTree::compute(f);
    let frontiers = dt.frontiers();
    let n = f.block_count();

    // (variable, block) for every definition; parameters are defined at
    // entry.
    let mut defs: Vec<(u32, BlockId)> = Vec::new();
    for &b in dt.rpo() {
        for inst in &f.block(b).insts {
            if let Some(d) = inst.dst.filter(|d| d.0 < num_vars) {
                defs.push((d.0, b));
            }
        }
    }
    defs.extend((0..u32::from(f.params)).map(|i| (i, f.entry)));
    defs.sort_unstable();
    defs.dedup();

    // Phis at each variable's iterated dominance frontier. Per block, the
    // last variable that put a phi there / defines it: stamps, so the
    // tables need no clearing between variables.
    let mut has_phi = vec![NONE; n];
    let mut is_def = vec![NONE; n];
    let mut work: Vec<BlockId> = Vec::new();
    let mut placed: Vec<(BlockId, u32)> = Vec::new();
    for group in defs.chunk_by(|x, y| x.0 == y.0) {
        let v = group[0].0;
        for &(_, b) in group {
            is_def[b.0 as usize] = v;
            work.push(b);
        }
        while let Some(b) = work.pop() {
            for &d in frontiers.get(b) {
                if has_phi[d.0 as usize] == v {
                    continue;
                }
                has_phi[d.0 as usize] = v;
                placed.push((d, v));
                if is_def[d.0 as usize] != v {
                    work.push(d);
                }
            }
        }
    }
    // A block's phis go after any it already has, in variable order, from
    // slot `phi_slot[b]` on.
    placed.sort_unstable();
    let mut phi_slot = vec![0u32; n];
    for group in placed.chunk_by(|x, y| x.0 == y.0) {
        let d = group[0].0;
        let slot = f.block(d).phi_count();
        phi_slot[d.0 as usize] = slot as u32;
        let arity = dt.preds().count(d);
        let phis = group
            .iter()
            .map(|&(_, v)| Inst::with_dst(VReg(v), Op::Phi(Vec::with_capacity(arity))));
        f.block_mut(d).insts.splice(slot..slot, phis);
    }
    let phi_vars = DenseLists::new(n, placed.iter().map(|&(b, v)| (b.0 as usize, v)));

    // Renaming via dominator-tree walk. Parameter values arrive in their
    // original registers.
    let mut rename = Rename {
        num_vars,
        stacks: vec![Vec::new(); num_vars as usize],
        pushed: Vec::new(),
        phi_slot,
        phi_vars,
    };
    for i in 0..u32::from(f.params) {
        rename.stacks[i as usize].push(VReg(i));
    }
    rename.walk(f, &dt, f.entry);
}

/// The renaming walk's state.
struct Rename {
    num_vars: u32,
    /// Per variable: its reaching SSA names, innermost last.
    stacks: Vec<Vec<VReg>>,
    /// Variable of every live push, in order, so leaving a subtree pops it.
    pushed: Vec<u32>,
    /// Per block: the variables of its inserted phis and their first slot.
    phi_slot: Vec<u32>,
    phi_vars: DenseLists<u32>,
}

impl Rename {
    fn top(&self, v: VReg) -> Option<VReg> {
        self.stacks[v.0 as usize].last().copied()
    }

    fn walk(&mut self, f: &mut Func, dt: &DomTree, b: BlockId) {
        let mark = self.pushed.len();
        self.visit(f, b);
        for &c in dt.children(b) {
            self.walk(f, dt, c);
        }
        for v in self.pushed.drain(mark..) {
            self.stacks[v as usize].pop();
        }
    }

    fn visit(&mut self, f: &mut Func, b: BlockId) {
        let num_vars = self.num_vars;
        let is_var = |v: VReg| v.0 < num_vars;

        // Uses get the current SSA names; variable defs (phis included) get
        // fresh ones.
        let mut insts = std::mem::take(&mut f.block_mut(b).insts);
        for inst in &mut insts {
            if !matches!(inst.op, Op::Phi(_)) {
                inst.op.for_each_arg_mut(|a| {
                    if is_var(*a) {
                        *a = self
                            .top(*a)
                            .unwrap_or_else(|| panic!("use of {a} before def in {}", f.name));
                    }
                });
            }
            if let Some(d) = inst.dst.filter(|&d| is_var(d)) {
                let fresh = f.vreg();
                inst.dst = Some(fresh);
                self.stacks[d.0 as usize].push(fresh);
                self.pushed.push(d.0);
            }
        }
        f.block_mut(b).insts = insts;
        let mut term = std::mem::replace(&mut f.block_mut(b).term, Term::Return(None));
        term.for_each_arg_mut(|a| {
            if is_var(*a) {
                *a = self
                    .top(*a)
                    .unwrap_or_else(|| panic!("use of {a} in terminator before def in {}", f.name));
            }
        });

        // Fill the inserted phis of each distinct successor.
        for (i, s) in term.succs().enumerate() {
            if term.succs().take(i).any(|t| t == s) {
                continue;
            }
            let slot0 = self.phi_slot[s.0 as usize] as usize;
            for (k, &v) in self.phi_vars.get(s.0 as usize).iter().enumerate() {
                let cur = self
                    .top(VReg(v))
                    .unwrap_or_else(|| panic!("phi input for v{v} undefined on edge {b}->{s}"));
                if let Op::Phi(ins) = &mut f.block_mut(s).insts[slot0 + k].op {
                    ins.push((b, cur));
                }
            }
        }
        f.block_mut(b).term = term;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use crate::verify;
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    /// Builds pre-SSA code equivalent to:
    /// ```text
    /// x = 0; i = 0;
    /// while (i < n) { x = x + i; i = i + 1; }
    /// return x
    /// ```
    /// with `n` as VReg(0) (parameter), `x` = VReg(1), `i` = VReg(2).
    fn loop_func() -> Func {
        let mut f = Func::new("l", MethodId(0), 1);
        let (n, x, i) = (VReg(0), VReg(1), VReg(2));
        f.vreg(); // reserve v1
        f.vreg(); // reserve v2
        let exit = f.add_block(Term::Return(Some(x)));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(x, Op::Const(0)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(i, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: i,
            b: n,
            t: body,
            f: exit,
            t_count: 10,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(x, Op::Bin(BinOp::Add, x, i)));
        let one = f.vreg();
        f.block_mut(body)
            .insts
            .insert(0, Inst::with_dst(one, Op::Const(1)));
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(i, Op::Bin(BinOp::Add, i, one)));
        f
    }

    #[test]
    fn loop_gets_phis_at_header() {
        let mut f = loop_func();
        construct(&mut f, 3);
        verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        let head = BlockId(2);
        let phis = f.block(head).phi_count();
        assert_eq!(
            phis,
            2,
            "x and i need phis at the loop header:\n{}",
            f.display()
        );
        // Each phi has two inputs: entry and body.
        for inst in f.block(head).phis() {
            if let Op::Phi(ins) = &inst.op {
                assert_eq!(ins.len(), 2);
            }
        }
    }

    #[test]
    fn straightline_needs_no_phis() {
        let mut f = Func::new("s", MethodId(0), 1);
        let v = VReg(1);
        f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(5)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Bin(BinOp::Add, v, VReg(0))));
        f.block_mut(f.entry).term = Term::Return(Some(v));
        construct(&mut f, 2);
        verify::verify(&f).unwrap();
        let phis: usize = f.block_ids().iter().map(|b| f.block(*b).phi_count()).sum();
        assert_eq!(phis, 0);
        // The redefinition got a fresh name and the return uses it.
        match f.block(f.entry).term {
            Term::Return(Some(r)) => {
                assert_eq!(r, f.block(f.entry).insts[1].dst.unwrap());
                assert_ne!(r, f.block(f.entry).insts[0].dst.unwrap());
            }
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn diamond_join_gets_phi() {
        // if (p) v = 1 else v = 2; return v
        let mut f = Func::new("d", MethodId(0), 1);
        let v = VReg(1);
        f.vreg();
        let join = f.add_block(Term::Return(Some(v)));
        let t = f.add_block(Term::Jump(join));
        let e = f.add_block(Term::Jump(join));
        f.block_mut(t).insts.push(Inst::with_dst(v, Op::Const(1)));
        f.block_mut(e).insts.push(Inst::with_dst(v, Op::Const(2)));
        let zero = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(zero, Op::Const(0)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Ne,
            a: VReg(0),
            b: zero,
            t,
            f: e,
            t_count: 1,
            f_count: 1,
        };
        construct(&mut f, 2);
        verify::verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert_eq!(f.block(join).phi_count(), 1, "{}", f.display());
    }
}
