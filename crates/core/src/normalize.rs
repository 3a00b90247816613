//! CFG normalization before boundary selection: every call gets its own
//! block, because atomic regions terminate at non-inlined calls and "often
//! begin new ones immediately after the call returns" (paper §4). Isolating
//! calls makes call blocks usable as trace boundaries and region stop points.

use hasp_ir::{BlockId, Func, Op, Term};

/// Splits blocks so that each `Call`/`CallVirtual` instruction is the only
/// non-phi instruction of its block. Returns the number of splits performed.
pub fn split_at_calls(f: &mut Func) -> usize {
    let mut splits = 0;
    let mut work: Vec<BlockId> = f.block_ids();
    while let Some(b) = work.pop() {
        if f.block(b).dead {
            continue;
        }
        let insts = &f.block(b).insts;
        let phi_count = f.block(b).phi_count();
        let call_pos = insts.iter().position(|i| i.op.is_call());
        let Some(pos) = call_pos else { continue };

        if pos > phi_count {
            // Split before the call; the tail (starting at the call) moves to
            // a new block, which we revisit.
            let tail = split_after(f, b, pos);
            splits += 1;
            work.push(tail);
        } else if insts.len() > pos + 1 {
            // Call leads the block but has trailing instructions: split after.
            let tail = split_after(f, b, pos + 1);
            splits += 1;
            work.push(tail);
        }
        // else: the call is alone (modulo leading phis) — done.
    }
    splits
}

/// Moves `insts[at..]` and the terminator of `b` into a fresh block, leaving
/// `b` to jump to it. Successor phis are re-pointed at the new block.
fn split_after(f: &mut Func, b: BlockId, at: usize) -> BlockId {
    let tail_insts: Vec<_> = f.block_mut(b).insts.split_off(at);
    let term = std::mem::replace(&mut f.block_mut(b).term, Term::Return(None));
    let freq = f.block(b).freq;
    let region = f.block(b).region;
    let tail = f.add_block(term);
    f.block_mut(tail).insts = tail_insts;
    f.block_mut(tail).freq = freq;
    f.block_mut(tail).region = region;
    f.block_mut(b).term = Term::Jump(tail);
    // Successors' phis must name the new predecessor.
    for k in 0..f.block(tail).term.succ_count() {
        let s = f.block(tail).term.succ(k);
        let insts = &mut f.block_mut(s).insts;
        for inst in insts {
            if let Op::Phi(ins) = &mut inst.op {
                for (p, _) in ins.iter_mut() {
                    if *p == b {
                        *p = tail;
                    }
                }
            }
        }
    }
    tail
}

/// True if `b` holds a (non-inlined) call.
pub fn is_call_block(f: &Func, b: BlockId) -> bool {
    f.block(b).insts.iter().any(|i| i.op.is_call())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst};
    use hasp_vm::bytecode::{BinOp, MethodId};

    #[test]
    fn isolates_calls() {
        let mut f = Func::new("t", MethodId(0), 0);
        let a = f.vreg();
        let b = f.vreg();
        let c = f.vreg();
        let d = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(a, Op::Const(1)));
        e.insts.push(Inst::with_dst(
            b,
            Op::Call {
                method: MethodId(1),
                args: vec![a],
            },
        ));
        e.insts.push(Inst::with_dst(c, Op::Bin(BinOp::Add, a, b)));
        e.insts.push(Inst::with_dst(
            d,
            Op::Call {
                method: MethodId(1),
                args: vec![c],
            },
        ));
        e.term = Term::Return(Some(d));

        let n = split_at_calls(&mut f);
        assert!(n >= 2, "expected at least two splits, got {n}");
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        // Every call block contains exactly one call and nothing else but phis.
        for bid in f.block_ids() {
            let blk = f.block(bid);
            let calls = blk.insts.iter().filter(|i| i.op.is_call()).count();
            if calls > 0 {
                assert_eq!(calls, 1);
                assert_eq!(blk.insts.len() - blk.phi_count(), 1, "{}", f.display());
            }
        }
    }

    #[test]
    fn call_free_function_untouched() {
        let mut f = Func::new("t", MethodId(0), 0);
        let a = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(a, Op::Const(1)));
        f.block_mut(f.entry).term = Term::Return(Some(a));
        assert_eq!(split_at_calls(&mut f), 0);
        assert_eq!(f.block_ids().len(), 1);
    }
}
