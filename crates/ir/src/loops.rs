//! Natural-loop detection and loop utilities (headers, pre-headers, exits,
//! nesting order) — Algorithm 1 processes "loops in post order" (innermost
//! first).

use crate::dense::BlockSet;
use crate::dom::DomTree;
use crate::func::Func;
use crate::instr::{BlockId, Op, Term};

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// The loop header (target of the back edge(s)).
    pub header: BlockId,
    /// All blocks in the loop, including the header.
    pub blocks: BlockSet,
    /// Loops whose headers are strictly inside this loop.
    pub depth: usize,
}

impl Loop {
    /// Blocks outside the loop reachable by one edge from inside (loop
    /// exits' *targets*), in `BlockId` order.
    pub fn exit_targets(&self, f: &Func) -> Vec<BlockId> {
        let mut out: Vec<BlockId> = self
            .blocks
            .iter()
            .flat_map(|b| f.succs(b))
            .filter(|&s| !self.blocks.contains(s))
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Blocks inside the loop that branch back to the header, in `BlockId`
    /// order.
    pub fn latches(&self, f: &Func) -> Vec<BlockId> {
        self.blocks
            .iter()
            .filter(|&b| f.succs(b).any(|s| s == self.header))
            .collect()
    }
}

/// All natural loops of a function.
#[derive(Debug, Clone)]
pub struct LoopForest {
    loops: Vec<Loop>,
}

impl LoopForest {
    /// Finds natural loops: for each back edge `t -> h` where `h` dominates
    /// `t`, the loop body is everything that reaches `t` without passing
    /// `h`. Back edges sharing a header are merged into one loop.
    pub fn compute(f: &Func, dt: &DomTree) -> Self {
        let preds = dt.preds();
        // Loop index of each header, in order of discovery.
        let mut loop_of = vec![u32::MAX; f.block_count()];
        let mut loops: Vec<Loop> = Vec::new();
        let mut stack: Vec<BlockId> = Vec::new();
        for &b in dt.rpo() {
            for s in f.succs(b) {
                if !dt.dominates(s, b) {
                    continue;
                }
                // b -> s is a back edge.
                let slot = &mut loop_of[s.0 as usize];
                if *slot == u32::MAX {
                    *slot = loops.len() as u32;
                    let mut blocks = BlockSet::with_capacity(f.block_count());
                    blocks.insert(s);
                    loops.push(Loop {
                        header: s,
                        blocks,
                        depth: 0,
                    });
                }
                let body = &mut loops[*slot as usize].blocks;
                // Walk predecessors from the latch up to the header.
                stack.push(b);
                while let Some(x) = stack.pop() {
                    if body.insert(x) {
                        stack.extend(preds.of(x).iter().filter(|&&p| !body.contains(p)));
                    }
                }
            }
        }
        // Depth = number of other loops containing this loop's header.
        let depths: Vec<usize> = loops
            .iter()
            .map(|l| {
                loops
                    .iter()
                    .filter(|o| o.header != l.header && o.blocks.contains(l.header))
                    .count()
            })
            .collect();
        for (l, d) in loops.iter_mut().zip(depths) {
            l.depth = d;
        }
        // Post order: innermost (deepest) first; tie-break on header id for
        // determinism.
        loops.sort_by(|a, b| b.depth.cmp(&a.depth).then(a.header.cmp(&b.header)));
        LoopForest { loops }
    }

    /// Loops innermost-first ("LoopsInPostOrder" of Algorithm 1).
    pub fn post_order(&self) -> &[Loop] {
        &self.loops
    }

    /// The innermost loop containing `b`, if any.
    pub fn innermost_containing(&self, b: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.blocks.contains(b))
    }

    /// The loop headed by `b`, if any.
    pub fn headed_by(&self, b: BlockId) -> Option<&Loop> {
        self.loops.iter().find(|l| l.header == b)
    }

    /// True if `b` is a loop header.
    pub fn is_header(&self, b: BlockId) -> bool {
        self.headed_by(b).is_some()
    }

    /// Number of loops.
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// True if the function has no loops.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }
}

/// Returns the unique pre-header of `loop_` (the single non-latch
/// predecessor of the header that has the header as its only successor),
/// or creates one by splitting the non-back edges into the header.
pub fn ensure_preheader(f: &mut Func, l: &Loop) -> BlockId {
    let preds = f.preds();
    let outside: Vec<BlockId> = preds
        .of(l.header)
        .iter()
        .copied()
        .filter(|&p| !l.blocks.contains(p))
        .collect();
    if let [p] = outside[..] {
        if f.succs(p).eq([l.header]) {
            return p;
        }
    }
    // Create a fresh pre-header and retarget all outside edges through it.
    let ph = f.add_block(Term::Jump(l.header));
    let mut freq = 0;
    for p in &outside {
        freq += f.edge_count(*p, l.header);
    }
    f.block_mut(ph).freq = freq;
    for p in outside {
        f.block_mut(p).term.retarget(l.header, ph);
        // Phi inputs from p now flow through ph.
        for inst in &mut f.block_mut(l.header).insts {
            if let Op::Phi(ins) = &mut inst.op {
                for (pb, _) in ins.iter_mut() {
                    if *pb == p {
                        *pb = ph;
                    }
                }
            }
        }
    }
    ph
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::bytecode::{CmpOp, MethodId};

    /// entry -> outer_head; outer: head -> inner_head -> inner_body -> inner_head | outer_latch; outer_latch -> outer_head | exit
    fn nested() -> Func {
        let mut f = Func::new("n", MethodId(0), 0);
        let x = f.vreg();
        let y = f.vreg();
        let exit = f.add_block(Term::Return(None)); // b1
        let outer_head = f.add_block(Term::Return(None)); // b2 patched below
        let inner_head = f.add_block(Term::Return(None)); // b3 patched
        let inner_body = f.add_block(Term::Jump(inner_head)); // b4
        let outer_latch = f.add_block(Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: outer_head,
            f: exit,
            t_count: 10,
            f_count: 1,
        }); // b5
        f.block_mut(outer_head).term = Term::Jump(inner_head);
        f.block_mut(inner_head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: inner_body,
            f: outer_latch,
            t_count: 100,
            f_count: 10,
        };
        f.block_mut(f.entry).term = Term::Jump(outer_head);
        f
    }

    #[test]
    fn finds_nested_loops_innermost_first() {
        let f = nested();
        let dt = DomTree::compute(&f);
        let lf = LoopForest::compute(&f, &dt);
        assert_eq!(lf.len(), 2);
        let inner = &lf.post_order()[0];
        let outer = &lf.post_order()[1];
        assert_eq!(inner.header, BlockId(3));
        assert_eq!(outer.header, BlockId(2));
        assert!(inner.depth > outer.depth);
        assert!(outer.blocks.contains(BlockId(3)));
        assert!(outer.blocks.contains(BlockId(5)));
        assert!(!inner.blocks.contains(BlockId(5)));
    }

    #[test]
    fn exits_and_latches() {
        let f = nested();
        let dt = DomTree::compute(&f);
        let lf = LoopForest::compute(&f, &dt);
        let outer = &lf.post_order()[1];
        assert_eq!(outer.exit_targets(&f), vec![BlockId(1)]);
        assert_eq!(outer.latches(&f), vec![BlockId(5)]);
        let inner = &lf.post_order()[0];
        assert_eq!(inner.latches(&f), vec![BlockId(4)]);
    }

    #[test]
    fn preheader_created_once() {
        let mut f = nested();
        let dt = DomTree::compute(&f);
        let lf = LoopForest::compute(&f, &dt);
        let inner = lf.post_order()[0].clone();
        let ph = ensure_preheader(&mut f, &inner);
        // outer_head jumps straight to inner_head and is outside the inner
        // loop, so it already is a valid pre-header.
        assert_eq!(ph, BlockId(2));

        let outer = lf.post_order()[1].clone();
        let ph2 = ensure_preheader(&mut f, &outer);
        // entry branches only to outer_head, so entry is the pre-header.
        assert_eq!(ph2, f.entry);
    }

    #[test]
    fn innermost_containing() {
        let f = nested();
        let dt = DomTree::compute(&f);
        let lf = LoopForest::compute(&f, &dt);
        assert_eq!(
            lf.innermost_containing(BlockId(4)).unwrap().header,
            BlockId(3)
        );
        assert_eq!(
            lf.innermost_containing(BlockId(5)).unwrap().header,
            BlockId(2)
        );
        assert!(lf.innermost_containing(BlockId(1)).is_none());
        assert!(lf.is_header(BlockId(2)));
        assert!(!lf.is_header(BlockId(4)));
    }
}
