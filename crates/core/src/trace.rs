//! Algorithm 2: `TRACEDOMINANTPATH` and `LOOPWEIGHT`.

use hasp_ir::{BlockId, BlockSet, Func, Loop, LoopForest, Preds};

use crate::cold::{dominant_pred, dominant_succ};

/// `LOOPWEIGHT(loop)`: Σ over loop blocks of `execCount(block) × ops(block)`
/// — the total dynamic operation count attributable to the loop.
pub fn loop_weight(f: &Func, l: &Loop) -> u64 {
    l.blocks
        .iter()
        .map(|b| {
            let blk = f.block(b);
            blk.freq * (blk.insts.len() as u64 + 1)
        })
        .sum()
}

/// `TRACEDOMINANTPATH(seedBlock, traceBoundaries)`: the most frequently
/// executed path through `seed`, traced forward along dominant out-edges and
/// backward along dominant in-edges, terminating when a boundary block is
/// appended/prepended (the boundary is included in the path).
///
/// Loops that were *not* selected for per-iteration regions are traversed as
/// a unit: a forward step that would re-enter the path (a back edge) jumps to
/// the loop's dominant exit instead, and a backward step from a loop header
/// takes the dominant *outside* predecessor. This keeps small hot loops
/// encapsulated whole (their pre-headers and exits become the candidates,
/// per Algorithm 1) instead of degenerating into per-iteration boundaries.
pub fn trace_dominant_path(
    f: &Func,
    preds: &Preds,
    forest: &LoopForest,
    seed: BlockId,
    boundaries: &BlockSet,
) -> Vec<BlockId> {
    let mut path = vec![seed];
    let mut on_path: BlockSet = [seed].into_iter().collect();

    if boundaries.contains(seed) {
        return path;
    }
    // Forward along dominant out-edges, hopping over unselected loops.
    let mut cur = seed;
    while let Some(mut next) = dominant_succ(f, cur) {
        if on_path.contains(next) {
            // Back edge: leave the loop through its dominant exit.
            let Some(l) = forest.headed_by(next).filter(|l| l.blocks.contains(cur)) else {
                break;
            };
            let exit = l
                .blocks
                .iter()
                .flat_map(|e| {
                    f.succs(e)
                        .filter(|&t| !l.blocks.contains(t))
                        .map(move |t| (t, f.edge_count(e, t)))
                })
                .max_by_key(|(t, c)| (*c, u32::MAX - t.0));
            match exit {
                Some((t, c)) if c > 0 && !on_path.contains(t) => next = t,
                _ => break,
            }
        }
        on_path.insert(next);
        path.push(next);
        if boundaries.contains(next) {
            break;
        }
        cur = next;
    }
    // Backward along dominant in-edges; from a loop header, only outside
    // predecessors count (the latch belongs to the encapsulated loop).
    let mut cur = seed;
    loop {
        let prev = match forest.headed_by(cur) {
            Some(l) => preds
                .of(cur)
                .iter()
                .filter(|&&p| !l.blocks.contains(p))
                .map(|p| (*p, f.edge_count(*p, cur)))
                .max_by_key(|(p, c)| (*c, u32::MAX - p.0))
                .filter(|(_, c)| *c > 0)
                .map(|(p, _)| p),
            None => dominant_pred(f, preds, cur),
        };
        let Some(prev) = prev else { break };
        if !on_path.insert(prev) {
            break;
        }
        path.insert(0, prev);
        if boundaries.contains(prev) {
            break;
        }
        cur = prev;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{DomTree, LoopForest, Term};
    use hasp_vm::bytecode::{CmpOp, MethodId};

    /// entry(100) -> a(100) -> b(100) -> c(100) -> ret(100), with a cold
    /// side-exit from b.
    fn chain() -> Func {
        let mut f = Func::new("c", MethodId(0), 0);
        let ret = f.add_block(Term::Return(None)); // b1
        let cold = f.add_block(Term::Return(None)); // b2
        let c = f.add_block(Term::Jump(ret)); // b3
        let x = f.vreg();
        let y = f.vreg();
        let b = f.add_block(Term::Branch {
            op: CmpOp::Eq,
            a: x,
            b: y,
            t: cold,
            f: c,
            t_count: 0,
            f_count: 100,
        }); // b4
        let a = f.add_block(Term::Jump(b)); // b5
        f.block_mut(f.entry).term = Term::Jump(a);
        for (blk, fr) in [
            (f.entry, 100),
            (a, 100),
            (b, 100),
            (c, 100),
            (ret, 100),
            (cold, 0),
        ] {
            f.block_mut(blk).freq = fr;
        }
        f
    }

    #[test]
    fn traces_hot_chain_between_boundaries() {
        let f = chain();
        let preds = f.preds();
        let forest = LoopForest::compute(&f, &DomTree::compute(&f));
        let boundaries: BlockSet = [f.entry, BlockId(1)].into_iter().collect();
        let path = trace_dominant_path(&f, &preds, &forest, BlockId(4), &boundaries);
        assert_eq!(
            path,
            vec![f.entry, BlockId(5), BlockId(4), BlockId(3), BlockId(1)],
            "path should span entry..ret through the hot chain"
        );
    }

    #[test]
    fn seed_on_boundary_is_trivial() {
        let f = chain();
        let preds = f.preds();
        let forest = LoopForest::compute(&f, &DomTree::compute(&f));
        let boundaries: BlockSet = [BlockId(4)].into_iter().collect();
        let path = trace_dominant_path(&f, &preds, &forest, BlockId(4), &boundaries);
        assert_eq!(path, vec![BlockId(4)]);
    }

    #[test]
    fn cycle_guard_terminates_in_loop() {
        // entry -> head <-> body (hot loop, no boundaries anywhere).
        let mut f = Func::new("l", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let x = f.vreg();
        let y = f.vreg();
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: body,
            f: exit,
            t_count: 1000,
            f_count: 10,
        };
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(f.entry).freq = 10;
        f.block_mut(head).freq = 1010;
        f.block_mut(body).freq = 1000;
        f.block_mut(exit).freq = 10;
        let preds = f.preds();
        let forest = LoopForest::compute(&f, &DomTree::compute(&f));
        let path = trace_dominant_path(&f, &preds, &forest, body, &BlockSet::new());
        // Must terminate and contain each block at most once.
        let unique: BlockSet = path.iter().copied().collect();
        assert_eq!(unique.len(), path.len());
        assert!(path.contains(&body));
    }

    #[test]
    fn loop_weight_counts_ops_times_freq() {
        let mut f = Func::new("w", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let x = f.vreg();
        let y = f.vreg();
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: body,
            f: exit,
            t_count: 100,
            f_count: 10,
        };
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(head).freq = 110;
        f.block_mut(body).freq = 100;
        // head has 0 insts (1 op for the terminator), body has 0 insts + 1.
        let dt = DomTree::compute(&f);
        let lf = LoopForest::compute(&f, &dt);
        let l = &lf.post_order()[0];
        assert_eq!(loop_weight(&f, l), 110 + 100);
    }
}
