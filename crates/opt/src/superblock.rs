//! Superblock formation (Hwu et al.) — the *conventional* speculative
//! optimization baseline of the paper's Figures 2–3: tail duplication
//! removes side entrances from the hot path so block-local redundancy
//! elimination can work, at the cost of code replication (and, in a full
//! implementation, compensation code at hot-path exits).
//!
//! This implementation performs profile-driven tail duplication: for the
//! dominant path through a seed block, every path block with multiple
//! predecessors is duplicated so the hot path has no side entrances. It
//! deliberately stops short of speculative downward code motion (which would
//! need compensation blocks) — that is the complexity the paper's hardware
//! atomicity removes, and the Figure 2/3 bench quantifies the difference.

use hasp_ir::{BlockId, BlockSet, DomTree, Func, LoopForest, Op, VReg};
use hasp_vm::fxhash::FxHashMap;

/// Forms superblocks along dominant paths. Returns the number of blocks
/// tail-duplicated.
pub fn run(f: &mut Func) -> usize {
    let dt = DomTree::compute(f);
    let forest = LoopForest::compute(f, &dt);
    let max_freq = f
        .block_ids()
        .iter()
        .map(|b| f.block(*b).freq)
        .max()
        .unwrap_or(0);
    if max_freq == 0 {
        return 0;
    }
    // Dominant path from the hottest block.
    let seed = f
        .block_ids()
        .into_iter()
        .max_by_key(|b| (f.block(*b).freq, u32::MAX - b.0))
        .expect("nonempty function");
    let path =
        hasp_core::trace::trace_dominant_path(f, dt.preds(), &forest, seed, &BlockSet::new());

    // Duplicate every path block (after the first) that has side entrances,
    // so the path becomes single-entry.
    let mut duplicated = 0;
    let mut prev = path[0];
    for &b in &path[1..] {
        if f.preds().count(b) <= 1 || !f.succs(prev).any(|s| s == b) {
            prev = b;
            continue;
        }
        let copy = duplicate_block(f, b, prev);
        duplicated += 1;
        prev = copy;
    }
    duplicated
}

/// Copies `b` so that `from` (and only `from`) enters the copy; other
/// predecessors keep the original. Phis in the copy collapse to the
/// `from`-edge values. Every duplicated definition gets an SSA repair so
/// downstream uses see reaching-definition phis.
fn duplicate_block(f: &mut Func, b: BlockId, from: BlockId) -> BlockId {
    let copy = f.add_block(f.block(b).term.clone());
    let mut vmap: FxHashMap<VReg, VReg> = FxHashMap::default();
    let mut insts = f.block(b).insts.clone();
    for inst in &mut insts {
        if let Some(d) = inst.dst {
            let fresh = f.vreg();
            vmap.insert(d, fresh);
            inst.dst = Some(fresh);
        }
    }
    // Phis collapse to the value flowing along from->b; other operands are
    // either outside defs or earlier copies in this block.
    for inst in &mut insts {
        if let Op::Phi(ins) = &inst.op {
            let v = ins
                .iter()
                .find(|(p, _)| *p == from)
                .map(|(_, v)| *v)
                .expect("phi must have an input for the duplicating pred");
            inst.op = Op::Copy(*vmap.get(&v).unwrap_or(&v));
        } else {
            inst.op.for_each_arg_mut(|a| *a = *vmap.get(a).unwrap_or(a));
        }
    }
    let mut term = f.block(copy).term.clone();
    term.for_each_arg_mut(|a| *a = *vmap.get(a).unwrap_or(a));
    let edge_freq = f.edge_count(from, b);
    f.block_mut(copy).insts = insts;
    f.block_mut(copy).term = term;
    f.block_mut(copy).freq = edge_freq;
    f.block_mut(copy).region = f.block(b).region;
    f.block_mut(b).freq = f.block(b).freq.saturating_sub(edge_freq);

    // Reroute from -> copy; drop from's phi inputs in b.
    f.block_mut(from).term.retarget(b, copy);
    for inst in &mut f.block_mut(b).insts {
        if let Op::Phi(ins) = &mut inst.op {
            ins.retain(|(p, _)| *p != from);
        }
    }
    // The copy's successors gain a predecessor: extend their phis with the
    // copy's values.
    let mut succs: Vec<BlockId> = f.succs(copy).collect();
    succs.dedup();
    for s in succs {
        let mut additions: Vec<(usize, VReg)> = Vec::new();
        for (idx, inst) in f.block(s).insts.iter().enumerate() {
            if let Op::Phi(ins) = &inst.op {
                let v = ins
                    .iter()
                    .find(|(p, _)| *p == b)
                    .map(|(_, v)| *v)
                    .expect("phi input for duplicated pred");
                additions.push((idx, *vmap.get(&v).unwrap_or(&v)));
            }
        }
        for (idx, v) in additions {
            if let Op::Phi(ins) = &mut f.block_mut(s).insts[idx].op {
                ins.push((copy, v));
            }
        }
    }
    // Reaching-definition repair for the duplicated values.
    let pairs: Vec<(VReg, VReg)> = vmap.into_iter().collect();
    hasp_ir::ssa_repair::repair(f, &pairs);
    copy
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, Term};
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    /// Figure 2(b)-style: hot path a1 -> b1 -> a2 -> b2, with a cold edge
    /// c1 -> a2 (a side entrance into the hot path).
    fn hot_path_with_side_entrance() -> Func {
        let mut f = Func::new("t", MethodId(0), 2);
        let (x, y) = (VReg(0), VReg(1));
        let ret = f.add_block(Term::Return(None)); // b1
        let b2 = f.add_block(Term::Jump(ret)); // b2
        let a2 = f.add_block(Term::Jump(b2)); // b3
        let c1 = f.add_block(Term::Jump(a2)); // b4 (cold side entrance)
        let b1 = f.add_block(Term::Jump(a2)); // b5
        let a1 = f.add_block(Term::Branch {
            op: CmpOp::Eq,
            a: x,
            b: y,
            t: c1,
            f: b1,
            t_count: 2,
            f_count: 998,
        }); // b6
        f.block_mut(f.entry).term = Term::Jump(a1);
        let d = f.vreg();
        f.block_mut(a2)
            .insts
            .push(Inst::with_dst(d, Op::Bin(BinOp::Add, x, y)));
        for (blk, fr) in [
            (f.entry, 1000),
            (a1, 1000),
            (b1, 998),
            (c1, 2),
            (a2, 1000),
            (b2, 1000),
            (ret, 1000),
        ] {
            f.block_mut(blk).freq = fr;
        }
        f
    }

    #[test]
    fn removes_side_entrance_by_duplication() {
        let mut f = hot_path_with_side_entrance();
        let n = run(&mut f);
        assert!(n >= 1, "expected tail duplication");
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // The original a2 keeps only the cold predecessor now.
        let preds = f.preds();
        let a2 = BlockId(3);
        assert_eq!(preds[a2], [BlockId(4)], "{}", f.display());
    }
}
