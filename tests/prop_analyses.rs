//! Property tests over the IR analyses on randomly generated reducible-ish
//! CFGs: dominator-tree laws, post-dominator duality at exits, loop
//! detection sanity, and batched SSA repair against one pair at a time.

use std::collections::HashMap;

use proptest::prelude::*;

use hasp_ir::{ssa_repair, verify, DomTree, Func, Inst, LoopForest, Op, PostDomTree, Term, VReg};
use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

/// Builds a random CFG: `n` blocks where block `i` branches to one or two
/// higher-numbered blocks (acyclic core) plus optional back edges to
/// lower-numbered blocks, last block returns.
fn random_cfg(edges: &[(u8, u8, bool)], n: usize) -> Func {
    let mut f = Func::new("r", MethodId(0), 0);
    let x = f.vreg();
    let y = f.vreg();
    // Blocks b1..=bn (entry is b0).
    let blocks: Vec<_> = (0..n).map(|_| f.add_block(Term::Return(None))).collect();
    f.block_mut(f.entry).term = Term::Jump(blocks[0]);
    for i in 0..n - 1 {
        // Default: fall through to the next block.
        f.block_mut(blocks[i]).term = Term::Jump(blocks[i + 1]);
    }
    for &(from, to, backward) in edges {
        let from = from as usize % n;
        if from == n - 1 {
            continue; // keep the exit a plain return
        }
        let to = if backward {
            to as usize % (from + 1) // ≤ from: a back edge
        } else {
            from + 1 + (to as usize % (n - from - 1).max(1))
        };
        let t = blocks[to.min(n - 1)];
        let fall = blocks[from + 1];
        f.block_mut(blocks[from]).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t,
            f: fall,
            t_count: 1,
            f_count: 1,
        };
    }
    f
}

/// Makes a [`random_cfg`] valid SSA (its branch operands get definitions in
/// the entry) and adds one replicated value per `(copy, use, phi)` triple:
/// the original is defined in the entry, its copy in block `copy`, a use in
/// block `use`, and — when block `phi` merges two or more edges — a phi
/// there reading the original from every predecessor. The exit returns the
/// first original. Returns the original → copy map.
fn replicate_values(f: &mut Func, placements: &[(u8, u8, u8)]) -> HashMap<VReg, VReg> {
    let blocks = f.rpo();
    let preds = f.preds();
    let pick = |i: u8| blocks[i as usize % blocks.len()];
    let entry = f.entry;
    for v in [VReg(0), VReg(1)] {
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(v, Op::Const(0)));
    }
    let mut copies = HashMap::new();
    for (k, &(copy_at, use_at, phi_at)) in placements.iter().enumerate() {
        let (orig, copy, sum) = (f.vreg(), f.vreg(), f.vreg());
        f.block_mut(entry)
            .insts
            .push(Inst::with_dst(orig, Op::Const(k as i64)));
        f.block_mut(pick(copy_at))
            .insts
            .push(Inst::with_dst(copy, Op::Const(k as i64)));
        f.block_mut(pick(use_at))
            .insts
            .push(Inst::with_dst(sum, Op::Bin(BinOp::Add, orig, orig)));
        let mut ins: Vec<(hasp_ir::BlockId, VReg)> =
            preds[&pick(phi_at)].iter().map(|&p| (p, orig)).collect();
        ins.sort();
        ins.dedup();
        if ins.len() >= 2 {
            let merged = f.vreg();
            f.block_mut(pick(phi_at))
                .insts
                .insert(0, Inst::with_dst(merged, Op::Phi(ins)));
        }
        copies.insert(orig, copy);
    }
    let exit = *blocks.last().expect("nonempty");
    if let Term::Return(v) = &mut f.block_mut(exit).term {
        *v = copies.keys().min().copied();
    }
    copies
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn dominator_laws(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let rpo = f.rpo();
        // Entry dominates everything reachable; everything dominates itself.
        for &b in &rpo {
            prop_assert!(dt.dominates(f.entry, b));
            prop_assert!(dt.dominates(b, b));
        }
        // idom is a strict dominator and dominance is transitive through it.
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                prop_assert!(dt.dominates(d, b));
                prop_assert!(d != b);
                if let Some(dd) = dt.idom(d) {
                    prop_assert!(dt.dominates(dd, b), "transitivity");
                }
            } else {
                prop_assert_eq!(b, f.entry);
            }
        }
        // A block's dominator must dominate all its predecessors' paths:
        // every CFG predecessor of b is dominated by idom(b) or IS a
        // back-edge source dominated by b itself... weaker check: idom(b)
        // dominates every pred that is not dominated by b.
        let preds = f.preds();
        for &b in &rpo {
            if let Some(d) = dt.idom(b) {
                for &p in preds.get(&b).into_iter().flatten() {
                    prop_assert!(
                        dt.dominates(d, p) || dt.dominates(b, p),
                        "idom({b}) = {d} must dominate pred {p} (or p is in a loop under {b})"
                    );
                }
            }
        }
    }

    #[test]
    fn postdominator_duality(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let pdt = PostDomTree::compute(&f);
        let rpo = f.rpo();
        for &b in &rpo {
            prop_assert!(pdt.post_dominates(b, b));
        }
        // Exit blocks post-dominate themselves and are in the exit list.
        for &e in pdt.exits() {
            prop_assert!(f.succs(e).is_empty());
        }
        // If a post-dominates b and b post-dominates a, they are equal.
        for &a in &rpo {
            for &b in &rpo {
                if a != b {
                    prop_assert!(
                        !(pdt.post_dominates(a, b) && pdt.post_dominates(b, a)),
                        "antisymmetry: {a} vs {b}"
                    );
                }
            }
        }
    }

    #[test]
    fn loop_headers_dominate_their_blocks(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
    ) {
        let f = random_cfg(&edges, n);
        let dt = DomTree::compute(&f);
        let forest = LoopForest::compute(&f, &dt);
        for l in forest.post_order() {
            for &b in &l.blocks {
                prop_assert!(
                    dt.dominates(l.header, b),
                    "natural-loop header {} must dominate member {b}",
                    l.header
                );
            }
            // Every latch is in the loop and targets the header.
            for latch in l.latches(&f) {
                prop_assert!(l.blocks.contains(&latch));
                prop_assert!(f.succs(latch).contains(&l.header));
            }
            // Post-order is innermost-first: members of an earlier loop that
            // share our header's blocks imply nesting consistency.
            prop_assert!(l.blocks.contains(&l.header));
        }
    }

    /// Repairing a replication's pairs in one call equals repairing them one
    /// call per pair in sorted order, and leaves valid SSA. Originals live in
    /// the entry, so a definition reaches every use and no zero is
    /// synthesized.
    #[test]
    fn batched_ssa_repair_matches_one_pair_at_a_time(
        edges in prop::collection::vec((any::<u8>(), any::<u8>(), any::<bool>()), 0..12),
        n in 3usize..12,
        placements in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..6),
    ) {
        let mut batched = random_cfg(&edges, n);
        let copies = replicate_values(&mut batched, &placements);
        let mut one_by_one = batched.clone();

        ssa_repair::repair(&mut batched, &copies);
        prop_assert!(verify(&batched).is_ok(), "{:?}\n{}", verify(&batched), batched.display());

        let mut pairs: Vec<(VReg, VReg)> = copies.into_iter().collect();
        pairs.sort();
        for pair in pairs {
            ssa_repair::repair(&mut one_by_one, &HashMap::from([pair]));
        }
        prop_assert_eq!(one_by_one.display(), batched.display());
    }
}
