//! Backward liveness analysis (used by lowering/register allocation and by
//! dead-code elimination's treatment of phis).

use crate::dense::VRegSet;
use crate::func::Func;
use crate::instr::{BlockId, Op};

/// Per-block live-in/live-out sets, indexed by `BlockId` (empty for blocks
/// the entry does not reach).
#[derive(Debug, Clone, Default)]
pub struct Liveness {
    live_in: Vec<VRegSet>,
    live_out: Vec<VRegSet>,
}

impl Liveness {
    /// Computes liveness for all reachable blocks.
    ///
    /// Phi semantics: a phi's operands are live-out of the corresponding
    /// predecessor (not live-in of the phi's block); phi results are defined
    /// at block entry.
    pub fn compute(f: &Func) -> Liveness {
        let blocks = f.rpo();
        let n = f.block_count();

        // Per-block upward-exposed uses and defs (phis excluded from uses);
        // phi uses attach to predecessor ends.
        let mut gen_ = vec![VRegSet::new(); n];
        let mut kill = vec![VRegSet::new(); n];
        let mut phi_uses = vec![VRegSet::new(); n];
        for &b in &blocks {
            let (g, k) = (&mut gen_[b.0 as usize], &mut kill[b.0 as usize]);
            for inst in &f.block(b).insts {
                match &inst.op {
                    Op::Phi(ins) => {
                        for &(p, v) in ins {
                            phi_uses[p.0 as usize].insert(v);
                        }
                    }
                    op => op.for_each_arg(|a| {
                        if !k.contains(a) {
                            g.insert(a);
                        }
                    }),
                }
                if let Some(d) = inst.dst {
                    k.insert(d);
                }
            }
            f.block(b).term.for_each_arg(|a| {
                if !k.contains(a) {
                    g.insert(a);
                }
            });
        }

        let mut live_in = vec![VRegSet::new(); n];
        let mut live_out = vec![VRegSet::new(); n];
        let mut changed = true;
        while changed {
            changed = false;
            // Reverse order converges faster for backward problems.
            for &b in blocks.iter().rev() {
                let i = b.0 as usize;
                let mut out = phi_uses[i].clone();
                for s in f.succs(b) {
                    out.union_with(&live_in[s.0 as usize]);
                }
                let mut inn = gen_[i].clone();
                for v in out.iter() {
                    if !kill[i].contains(v) {
                        inn.insert(v);
                    }
                }
                if out != live_out[i] {
                    live_out[i] = out;
                    changed = true;
                }
                if inn != live_in[i] {
                    live_in[i] = inn;
                    changed = true;
                }
            }
        }
        Liveness { live_in, live_out }
    }

    /// Values live at the entry of `b` (phi results included).
    pub fn live_in(&self, b: BlockId) -> &VRegSet {
        &self.live_in[b.0 as usize]
    }

    /// Values live at the exit of `b`.
    pub fn live_out(&self, b: BlockId) -> &VRegSet {
        &self.live_out[b.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::{Inst, Term, VReg};
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    #[test]
    fn loop_carried_value_live_around_loop() {
        // entry: x0=0 -> head: x=phi(entry x0, body x1); branch -> body|exit
        // body: x1 = x + p0 -> head; exit: return x
        let mut f = Func::new("l", MethodId(0), 1);
        let p = VReg(0);
        let x0 = f.vreg();
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let x = f.vreg();
        let x1 = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(x0, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Jump(head);
        let entry = f.entry;
        f.block_mut(head)
            .insts
            .push(Inst::with_dst(x, Op::Phi(vec![(entry, x0), (body, x1)])));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: p,
            t: body,
            f: exit,
            t_count: 5,
            f_count: 1,
        };
        f.block_mut(body)
            .insts
            .push(Inst::with_dst(x1, Op::Bin(BinOp::Add, x, p)));
        f.block_mut(exit).term = Term::Return(Some(x));

        let lv = Liveness::compute(&f);
        // x1 is live out of body (consumed by head's phi).
        assert!(lv.live_out(body).contains(x1));
        // x is live into body and exit.
        assert!(lv.live_in(body).contains(x));
        assert!(lv.live_in(exit).contains(x));
        // p (parameter) is live into head.
        assert!(lv.live_in(head).contains(p));
        // x0 is live out of entry (phi input) but not into body.
        assert!(lv.live_out(f.entry).contains(x0));
        assert!(!lv.live_in(body).contains(x0));
    }
}
