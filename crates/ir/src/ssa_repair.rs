//! SSA repair after code replication.
//!
//! Replication (region formation, partial unrolling, tail duplication)
//! gives every copied value a second definition: the original and its copy.
//! Uses downstream of the duplicated code are then no longer dominated by
//! any single definition. [`repair`] treats each (original, copy) pair as
//! assignments to one variable and restores SSA for all pairs of one
//! replication at once — the classic SSA updater, batched over variables:
//!
//! 1. one scan finds every pair's definition blocks;
//! 2. each pair gets join phis at the iterated dominance frontier (IDF) of
//!    its definition blocks;
//! 3. one dominator-tree walk, with a def stack per pair, rewrites every use
//!    to its nearest reaching definition and fills the join phis.
//!
//! A replication costs O(insts + Σ|IDF|), however many values it copies.

use std::collections::HashMap;

use crate::dom::DomTree;
use crate::func::Func;
use crate::instr::{BlockId, Inst, Op, VReg};

/// "No pair" in the dense per-value and per-block tables.
const NONE: u32 = u32::MAX;

/// Join-phi input on a path that no definition reaches; materialized as a
/// zero constant once the walk is done.
const UNDEF: VReg = VReg(u32::MAX);

/// Rewrites every use of the values in `copies` (original → copy) to its
/// reaching definition, inserting join phis as needed.
///
/// Preconditions: every value in `copies` is defined at most once; on every
/// path reaching a use, at least one value of its pair is defined (paths
/// where none is defined feed the join phis a synthesized zero — such paths
/// cannot consume the value meaningfully, or the input was broken before
/// replication). A pair defined in fewer than two reachable blocks is left
/// alone: its one definition already dominates its uses.
///
/// The result does not depend on `copies`' iteration order. It equals
/// repairing one pair at a time in sorted order — a pair's join phis are
/// numbered in `BlockId` order and each goes in front of its block's
/// existing phis — except that the zeros are synthesized once, after every
/// pair is placed.
pub fn repair(f: &mut Func, copies: &HashMap<VReg, VReg>) {
    let mut pairs: Vec<(VReg, VReg)> = copies.iter().map(|(&d, &c)| (d, c)).collect();
    pairs.sort_unstable();

    // Pair index of every replicated value.
    let mut pair_of = vec![NONE; f.vreg_count() as usize];
    for (i, &(d, c)) in pairs.iter().enumerate() {
        for v in [d, c] {
            if let Some(slot) = pair_of.get_mut(v.0 as usize) {
                *slot = i as u32;
            }
        }
    }

    // 1. Definition blocks of every pair, in one scan.
    let mut defs: Vec<(u32, BlockId)> = Vec::new();
    for b in f.rpo() {
        for inst in &f.block(b).insts {
            if let Some(p) = inst.dst.and_then(|d| lookup(&pair_of, d)) {
                defs.push((p, b));
            }
        }
    }
    defs.sort_unstable();
    defs.dedup();
    let mut active = vec![false; pairs.len()];
    for group in defs.chunk_by(|x, y| x.0 == y.0) {
        active[group[0].0 as usize] = group.len() >= 2;
    }
    for slot in &mut pair_of {
        if *slot != NONE && !active[*slot as usize] {
            *slot = NONE;
        }
    }
    if !active.contains(&true) {
        return;
    }

    // 2. Join phis at each active pair's IDF. `joins[i]` is the (block,
    // pair) of the phi defining `VReg(base + i)`.
    let dt = DomTree::compute(f);
    let frontiers = dt.frontiers(f);
    let base = f.vreg_count();
    let mut joins: Vec<(BlockId, u32)> = Vec::new();
    // Per block, the last pair whose IDF (defs) it is in: stamps, so the
    // tables need no clearing between pairs.
    let mut in_idf = vec![NONE; f.block_count()];
    let mut is_def = vec![NONE; f.block_count()];
    let mut work: Vec<BlockId> = Vec::new();
    let mut idf: Vec<BlockId> = Vec::new();
    for group in defs.chunk_by(|x, y| x.0 == y.0) {
        let p = group[0].0;
        if !active[p as usize] {
            continue;
        }
        for &(_, b) in group {
            is_def[b.0 as usize] = p;
            work.push(b);
        }
        while let Some(b) = work.pop() {
            for &d in frontiers.get(&b).into_iter().flatten() {
                if in_idf[d.0 as usize] != p {
                    in_idf[d.0 as usize] = p;
                    idf.push(d);
                    if is_def[d.0 as usize] != p {
                        work.push(d);
                    }
                }
            }
        }
        idf.sort_unstable();
        for d in idf.drain(..) {
            let phi = f.vreg();
            debug_assert_eq!(phi.0, base + joins.len() as u32);
            joins.push((d, p));
        }
    }
    // A block's join phis go in front of its phis, the last pair's first.
    let mut order: Vec<usize> = (0..joins.len()).collect();
    order.sort_unstable_by_key(|&i| (joins[i].0, std::cmp::Reverse(joins[i].1)));
    let mut join_blocks: Vec<(BlockId, usize)> = Vec::new();
    for group in order.chunk_by(|&x, &y| joins[x].0 == joins[y].0) {
        let b = joins[group[0]].0;
        let phis = group
            .iter()
            .map(|&i| Inst::with_dst(VReg(base + i as u32), Op::Phi(Vec::new())));
        f.block_mut(b).insts.splice(0..0, phis);
        join_blocks.push((b, group.len()));
    }

    // 3. Reaching definitions, in one dominator-tree walk.
    let mut reaching = ReachingDefs {
        pair_of,
        base,
        joins: joins.iter().map(|&(_, p)| p).collect(),
        stacks: vec![Vec::new(); pairs.len()],
        pushed: Vec::new(),
    };
    reaching.walk(f, &dt, dt.root());

    // Join-phi inputs no definition reaches become a zero constant at the
    // end of the predecessor.
    let mut undef: Vec<(BlockId, BlockId, usize)> = Vec::new(); // (pred, block, phi)
    for &(b, count) in &join_blocks {
        for (i, inst) in f.block(b).insts[..count].iter().enumerate() {
            if let Op::Phi(ins) = &inst.op {
                undef.extend(
                    ins.iter()
                        .filter(|(_, v)| *v == UNDEF)
                        .map(|(p, _)| (*p, b, i)),
                );
            }
        }
    }
    for (p, b, i) in undef {
        let z = f.vreg();
        f.block_mut(p).insts.push(Inst::with_dst(z, Op::Const(0)));
        if let Op::Phi(ins) = &mut f.block_mut(b).insts[i].op {
            for (q, v) in ins.iter_mut() {
                if *q == p && *v == UNDEF {
                    *v = z;
                }
            }
        }
    }
}

fn lookup(table: &[u32], v: VReg) -> Option<u32> {
    table.get(v.0 as usize).copied().filter(|&p| p != NONE)
}

/// The walk's state: which pair each value belongs to and the definitions
/// of every pair that reach the current block.
struct ReachingDefs {
    /// Pair of each replicated value (`NONE` for other values).
    pair_of: Vec<u32>,
    /// First join-phi value; `joins[i]` is the pair of `VReg(base + i)`.
    base: u32,
    joins: Vec<u32>,
    /// Per pair: reaching definitions, innermost last.
    stacks: Vec<Vec<VReg>>,
    /// Pair of every live push, in order, so leaving a subtree pops it.
    pushed: Vec<u32>,
}

impl ReachingDefs {
    /// The pair `v` is a definition of: a replicated value or a join phi.
    fn def_pair(&self, v: VReg) -> Option<u32> {
        lookup(&self.pair_of, v).or_else(|| self.join_pair(v))
    }

    /// The pair `v` is the join phi of.
    fn join_pair(&self, v: VReg) -> Option<u32> {
        let i = v.0.checked_sub(self.base)?;
        self.joins.get(i as usize).copied()
    }

    fn reaching(&self, p: u32) -> Option<VReg> {
        self.stacks[p as usize].last().copied()
    }

    /// Rewrites `a` to its reaching definition if it is a replicated value.
    fn rename(&self, a: &mut VReg, b: BlockId) {
        if let Some(p) = lookup(&self.pair_of, *a) {
            *a = self
                .reaching(p)
                .unwrap_or_else(|| panic!("use of replicated value with no reaching def in {b}"));
        }
    }

    /// Visits the dominator subtree rooted at `b`, then drops the
    /// definitions it pushed.
    fn walk(&mut self, f: &mut Func, dt: &DomTree, b: BlockId) {
        let mark = self.pushed.len();
        self.visit(f, b);
        for &c in dt.children(b) {
            self.walk(f, dt, c);
        }
        for p in self.pushed.drain(mark..) {
            self.stacks[p as usize].pop();
        }
    }

    /// Renames the uses in `b`, pushes its definitions, and feeds the phis
    /// of its successors along the edges out of `b`.
    fn visit(&mut self, f: &mut Func, b: BlockId) {
        let blk = f.block_mut(b);
        for inst in &mut blk.insts {
            if !matches!(inst.op, Op::Phi(_)) {
                for a in inst.op.args_mut() {
                    self.rename(a, b);
                }
            }
            if let Some(d) = inst.dst {
                if let Some(p) = self.def_pair(d) {
                    self.stacks[p as usize].push(d);
                    self.pushed.push(p);
                }
            }
        }
        for a in blk.term.args_mut() {
            self.rename(a, b);
        }

        let mut succs = f.succs(b);
        succs.sort_unstable();
        succs.dedup();
        for s in succs {
            for inst in &mut f.block_mut(s).insts {
                let Op::Phi(ins) = &mut inst.op else { break };
                if let Some(p) = inst.dst.and_then(|d| self.join_pair(d)) {
                    if !ins.iter().any(|(q, _)| *q == b) {
                        ins.push((b, self.reaching(p).unwrap_or(UNDEF)));
                    }
                } else {
                    for (q, v) in ins.iter_mut() {
                        if *q == b {
                            if let Some(p) = lookup(&self.pair_of, *v) {
                                *v = self.reaching(p).unwrap_or_else(|| {
                                    panic!("phi input without reaching def at {b}")
                                });
                            }
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use crate::verify;
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    fn copies(pairs: &[(VReg, VReg)]) -> HashMap<VReg, VReg> {
        pairs.iter().copied().collect()
    }

    /// entry -> {orig, copy} -> join -> use(v_orig)
    /// The copy defines v2 (a replica of v1); the use in join must become a
    /// phi of both.
    #[test]
    fn diamond_copy_gets_phi() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let join = f.add_block(Term::Return(None));
        let orig = f.add_block(Term::Jump(join));
        let copy = f.add_block(Term::Jump(join));
        let v1 = f.vreg();
        let v2 = f.vreg();
        let z = f.vreg();
        f.block_mut(orig)
            .insts
            .push(Inst::with_dst(v1, Op::Const(10)));
        f.block_mut(copy)
            .insts
            .push(Inst::with_dst(v2, Op::Const(10)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(z, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: p,
            b: z,
            t: orig,
            f: copy,
            t_count: 1,
            f_count: 1,
        };
        let out = f.vreg();
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(out, Op::Bin(BinOp::Add, v1, v1)));
        f.block_mut(join).term = Term::Return(Some(out));
        assert!(verify(&f).is_err(), "broken before repair");

        repair(&mut f, &copies(&[(v1, v2)]));
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // join got a phi over (orig v1, copy v2).
        match &f.block(join).insts[0].op {
            Op::Phi(ins) => {
                let mut vals: Vec<VReg> = ins.iter().map(|(_, v)| *v).collect();
                vals.sort();
                assert_eq!(vals, vec![v1, v2]);
            }
            other => panic!("expected join phi, got {other:?}"),
        }
    }

    /// Loop-shaped repair: def before loop and def of the replica inside the
    /// loop; use after the loop sees a header phi.
    #[test]
    fn loop_copy_gets_header_phi() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let v1 = f.vreg();
        let v2 = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v1, Op::Const(1)));
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: p,
            b: p,
            t: body,
            f: exit,
            t_count: 5,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(v2, Op::Bin(BinOp::Add, v1, v1)));
        f.block_mut(exit).term = Term::Return(Some(v1));

        repair(&mut f, &copies(&[(v1, v2)]));
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert!(
            f.block(head).phi_count() >= 1,
            "header needs a merge phi:\n{}",
            f.display()
        );
    }

    /// entry(v1) -> {left(v2), right}; left returns, right uses v1. Right
    /// is visited after left in the dominator walk but is not reachable
    /// from it, so left's copy must be off the def stack by then.
    #[test]
    fn copy_on_one_arm_does_not_reach_the_other() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let left = f.add_block(Term::Return(None));
        let right = f.add_block(Term::Return(None));
        let (v1, v2) = (f.vreg(), f.vreg());
        let entry = f.entry;
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(v1, Op::Const(1)));
        f.block_mut(entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: p,
            b: p,
            t: left,
            f: right,
            t_count: 1,
            f_count: 1,
        };
        f.block_mut(left)
            .insts
            .push(Inst::with_dst(v2, Op::Const(1)));
        f.block_mut(left).term = Term::Return(Some(v2));
        f.block_mut(right).term = Term::Return(Some(v1));

        repair(&mut f, &copies(&[(v1, v2)]));
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert_eq!(f.block(right).term, Term::Return(Some(v1)));
    }

    #[test]
    fn single_def_untouched() {
        let mut f = Func::new("t", MethodId(0), 0);
        let v = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(3)));
        f.block_mut(f.entry).term = Term::Return(Some(v));
        repair(&mut f, &copies(&[(v, VReg(99))]));
        verify(&f).unwrap();
        assert_eq!(f.block(f.entry).insts.len(), 1);
    }

    /// Two pairs copied into the same arm of a diamond both need a join phi
    /// at the merge. The merge's phis come out as repairing the pairs one at
    /// a time in sorted order leaves them: the later pair's phi first, each
    /// pair's phi numbered in pair order, inputs in walk order.
    #[test]
    fn two_pairs_join_in_one_block() {
        let mut f = Func::new("t", MethodId(0), 1);
        let p = VReg(0);
        let join = f.add_block(Term::Return(None));
        let orig = f.add_block(Term::Jump(join));
        let copy = f.add_block(Term::Jump(join));
        let (a1, b1, a2, b2) = (f.vreg(), f.vreg(), f.vreg(), f.vreg());
        f.block_mut(orig).insts.extend([
            Inst::with_dst(a1, Op::Const(1)),
            Inst::with_dst(b1, Op::Bin(BinOp::Add, a1, a1)),
        ]);
        f.block_mut(copy).insts.extend([
            Inst::with_dst(a2, Op::Const(1)),
            Inst::with_dst(b2, Op::Bin(BinOp::Add, a2, a2)),
        ]);
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: p,
            b: p,
            t: orig,
            f: copy,
            t_count: 1,
            f_count: 1,
        };
        let out = f.vreg();
        f.block_mut(join)
            .insts
            .push(Inst::with_dst(out, Op::Bin(BinOp::Sub, b1, a1)));
        f.block_mut(join).term = Term::Return(Some(out));
        let mut one_by_one = f.clone();

        repair(&mut f, &copies(&[(b1, b2), (a1, a2)]));
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        let (pa, pb) = (VReg(6), VReg(7)); // a's pair sorts first
        assert_eq!(
            f.block(join).insts,
            vec![
                Inst::with_dst(pb, Op::Phi(vec![(orig, b1), (copy, b2)])),
                Inst::with_dst(pa, Op::Phi(vec![(orig, a1), (copy, a2)])),
                Inst::with_dst(out, Op::Bin(BinOp::Sub, pb, pa)),
            ]
        );

        repair(&mut one_by_one, &copies(&[(a1, a2)]));
        repair(&mut one_by_one, &copies(&[(b1, b2)]));
        assert_eq!(one_by_one.display(), f.display());
    }
}
