//! Speculative lock elision (paper §4, ~400 LOC in the authors' compiler).
//!
//! Atomic regions often contain balanced monitor enter/exit pairs on
//! uncontended locks. Hardware atomicity already isolates the region from
//! other threads, so the pair can be elided: the enter becomes a single load
//! of the lock word plus a held-by-another-thread test (abort if held), and
//! the exit disappears entirely — "in the common case, no action is needed
//! at the monitor exit".

use hasp_ir::{BlockId, DomTree, Func, Op, PostDomTree, VReg};
use hasp_vm::fxhash::FxHashMap;

/// Elides balanced monitor pairs inside atomic regions. Returns the number
/// of pairs elided.
pub fn run(f: &mut Func) -> usize {
    if f.regions.is_empty() {
        return 0;
    }
    // Collect monitor ops per (region, lock value).
    type Site = (BlockId, usize);
    let mut enters: FxHashMap<(u32, VReg), Vec<Site>> = FxHashMap::default();
    let mut exits: FxHashMap<(u32, VReg), Vec<Site>> = FxHashMap::default();
    for b in f.block_ids() {
        let Some(r) = f.block(b).region else { continue };
        for (i, inst) in f.block(b).insts.iter().enumerate() {
            match inst.op {
                Op::MonitorEnter(v) => enters.entry((r.0, v)).or_default().push((b, i)),
                Op::MonitorExit(v) => exits.entry((r.0, v)).or_default().push((b, i)),
                _ => {}
            }
        }
    }

    if enters.is_empty() {
        return 0;
    }
    let dt = DomTree::compute(f);
    let pdt = PostDomTree::compute(f);

    // Greedy ordered pairing: sort each lock's enters and exits by
    // (dominance-compatible) program order and match the i-th enter with the
    // i-th exit. A pair is elidable when the enter dominates the exit and
    // the exit post-dominates the enter — every region path acquires and
    // releases together. (For nested pairs this elides inner pairs first,
    // which is also correct.)
    let mut rpo_index = vec![usize::MAX; f.block_count()];
    for (i, &b) in dt.rpo().iter().enumerate() {
        rpo_index[b.0 as usize] = i;
    }
    let order_key = |(b, i): Site| -> (usize, usize) { (rpo_index[b.0 as usize], i) };
    let mut rewrites: Vec<(Site, Site, VReg)> = Vec::new();
    for (key, ens) in &enters {
        let Some(exs) = exits.get(key) else { continue };
        if ens.len() != exs.len() {
            continue;
        }
        let mut ens = ens.clone();
        let mut exs = exs.clone();
        ens.sort_by_key(|s| order_key(*s));
        exs.sort_by_key(|s| order_key(*s));
        let mut ok = true;
        let mut pairs = Vec::new();
        for (&(eb, ei), &(xb, xi)) in ens.iter().zip(&exs) {
            let ordered = if eb == xb {
                ei < xi
            } else {
                dt.dominates(eb, xb) && pdt.post_dominates(xb, eb)
            };
            if !ordered {
                ok = false;
                break;
            }
            pairs.push(((eb, ei), (xb, xi), key.1));
        }
        if ok {
            rewrites.extend(pairs);
        }
    }

    // Apply: enter -> SleCheck, exit -> removed. Process removals from the
    // highest index so earlier indices stay valid.
    let mut removals: Vec<Site> = Vec::new();
    for ((eb, ei), (xb, xi), v) in &rewrites {
        f.block_mut(*eb).insts[*ei].op = Op::SleCheck(*v);
        removals.push((*xb, *xi));
    }
    removals.sort_by(|a, b| b.cmp(a));
    for (xb, xi) in removals {
        f.block_mut(xb).insts.remove(xi);
    }
    rewrites.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, RegionInfo, Term};
    use hasp_vm::bytecode::MethodId;

    fn region_with_monitor_pair(balanced: bool) -> (Func, BlockId) {
        let mut f = Func::new("t", MethodId(0), 1);
        let lock = hasp_ir::VReg(0);
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Return(None));
        let abort = f.add_block(Term::Jump(exit));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 4,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        f.block_mut(body).region = Some(r);
        f.block_mut(body)
            .insts
            .push(Inst::effect(Op::MonitorEnter(lock)));
        if balanced {
            f.block_mut(body)
                .insts
                .push(Inst::effect(Op::MonitorExit(lock)));
        }
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));
        f.block_mut(body).term = Term::Jump(exit);
        (f, body)
    }

    #[test]
    fn elides_balanced_pair() {
        let (mut f, body) = region_with_monitor_pair(true);
        assert_eq!(run(&mut f), 1);
        verify(&f).unwrap();
        let ops: Vec<&Op> = f.block(body).insts.iter().map(|i| &i.op).collect();
        assert!(matches!(ops[0], Op::SleCheck(_)));
        assert!(!ops
            .iter()
            .any(|o| matches!(o, Op::MonitorExit(_) | Op::MonitorEnter(_))));
    }

    #[test]
    fn unbalanced_pair_untouched() {
        let (mut f, body) = region_with_monitor_pair(false);
        assert_eq!(run(&mut f), 0);
        assert!(f
            .block(body)
            .insts
            .iter()
            .any(|i| matches!(i.op, Op::MonitorEnter(_))));
    }

    #[test]
    fn monitors_outside_regions_untouched() {
        let mut f = Func::new("t", MethodId(0), 1);
        let lock = hasp_ir::VReg(0);
        f.block_mut(f.entry)
            .insts
            .push(Inst::effect(Op::MonitorEnter(lock)));
        f.block_mut(f.entry)
            .insts
            .push(Inst::effect(Op::MonitorExit(lock)));
        f.block_mut(f.entry).term = Term::Return(None);
        assert_eq!(run(&mut f), 0);
        assert_eq!(f.block(f.entry).insts.len(), 2);
    }

    #[test]
    fn exit_not_postdominating_is_skipped() {
        // enter in body, exit only on one side of a diamond: not elidable.
        use hasp_vm::bytecode::CmpOp;
        let mut f = Func::new("t", MethodId(0), 2);
        let lock = hasp_ir::VReg(0);
        let cond = hasp_ir::VReg(1);
        let ret = f.add_block(Term::Return(None));
        let join = f.add_block(Term::Return(None));
        let left = f.add_block(Term::Jump(join));
        let right = f.add_block(Term::Jump(join));
        let body = f.add_block(Term::Return(None));
        let abort = f.add_block(Term::Jump(ret));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 8,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        for b in [body, left, right, join] {
            f.block_mut(b).region = Some(r);
        }
        f.block_mut(body)
            .insts
            .push(Inst::effect(Op::MonitorEnter(lock)));
        f.block_mut(body).term = Term::Branch {
            op: CmpOp::Eq,
            a: cond,
            b: cond,
            t: left,
            f: right,
            t_count: 1,
            f_count: 1,
        };
        f.block_mut(left)
            .insts
            .push(Inst::effect(Op::MonitorExit(lock)));
        f.block_mut(join).insts.push(Inst::effect(Op::RegionEnd(r)));
        f.block_mut(join).term = Term::Jump(ret);
        assert_eq!(run(&mut f), 0, "exit must post-dominate enter");
    }
}
