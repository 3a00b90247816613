//! Dominators, post-dominators, and dominance frontiers
//! (Cooper–Harvey–Kennedy iterative algorithm).
//!
//! Every table is a vector indexed by `BlockId`. Both trees number their
//! nodes in a depth-first preorder, so a (post-)dominance query is two
//! comparisons: `a` dominates `b` iff `b`'s number falls in `a`'s subtree
//! interval.

use crate::dense::DenseLists;
use crate::func::{Func, Preds};
use crate::instr::BlockId;

/// "No block" in the dense tables.
const NONE: u32 = u32::MAX;

/// Immediate dominators over an abstract graph of `n` nodes `0..n`, given
/// in reverse postorder from the root (`order[0]`). `preds(v, push)` pushes
/// the predecessors of node `v`; nodes outside `order` are ignored.
/// Returns each node's immediate dominator (`NONE` for the root and for
/// nodes outside `order`).
fn compute_idoms(n: usize, order: &[u32], mut preds: impl FnMut(u32, &mut Vec<u32>)) -> Vec<u32> {
    let mut index = vec![NONE; n];
    for (i, &v) in order.iter().enumerate() {
        index[v as usize] = i as u32;
    }
    // Immediate dominators by reverse-postorder position; the root is its
    // own until the end.
    let mut idom = vec![NONE; order.len()];
    idom[0] = 0;
    let mut ps = Vec::new();
    let mut changed = true;
    while changed {
        changed = false;
        for (i, &v) in order.iter().enumerate().skip(1) {
            ps.clear();
            preds(v, &mut ps);
            let mut new_idom = NONE;
            for &p in &ps {
                let pi = index[p as usize];
                if pi == NONE || idom[pi as usize] == NONE {
                    continue;
                }
                new_idom = if new_idom == NONE {
                    pi
                } else {
                    intersect(&idom, pi, new_idom)
                };
            }
            if new_idom != NONE && idom[i] != new_idom {
                idom[i] = new_idom;
                changed = true;
            }
        }
    }
    let mut out = vec![NONE; n];
    for (i, &v) in order.iter().enumerate().skip(1) {
        if idom[i] != NONE {
            out[v as usize] = order[idom[i] as usize];
        }
    }
    out
}

fn intersect(idom: &[u32], mut a: u32, mut b: u32) -> u32 {
    while a != b {
        while a > b {
            a = idom[a as usize];
        }
        while b > a {
            b = idom[b as usize];
        }
    }
    a
}

/// A tree over `0..n` given by parent links, stored as children lists
/// (ascending) with preorder numbers for O(1) ancestor queries.
#[derive(Debug, Clone)]
struct Tree {
    parent: Vec<u32>,
    children: DenseLists<BlockId>,
    /// Preorder number of each node (`NONE` outside the tree) and the
    /// largest preorder number in its subtree.
    pre: Vec<u32>,
    last: Vec<u32>,
    preorder: Vec<BlockId>,
}

impl Tree {
    fn new(root: u32, parent: Vec<u32>) -> Tree {
        let n = parent.len();
        let children = DenseLists::new(
            n,
            parent
                .iter()
                .enumerate()
                .filter(|(_, &p)| p != NONE)
                .map(|(v, &p)| (p as usize, BlockId(v as u32))),
        );
        let mut pre = vec![NONE; n];
        let mut last = vec![NONE; n];
        let mut preorder = Vec::with_capacity(n);
        // Preorder over children in ascending order; on leaving a node, its
        // subtree's last number is the current count - 1.
        let mut stack: Vec<(u32, usize)> = vec![(root, 0)];
        pre[root as usize] = 0;
        preorder.push(BlockId(root));
        while let Some(&mut (v, ref mut next_child)) = stack.last_mut() {
            if let Some(&c) = children.get(v as usize).get(*next_child) {
                *next_child += 1;
                pre[c.0 as usize] = preorder.len() as u32;
                preorder.push(c);
                stack.push((c.0, 0));
            } else {
                last[v as usize] = preorder.len() as u32 - 1;
                stack.pop();
            }
        }
        Tree {
            parent,
            children,
            pre,
            last,
            preorder,
        }
    }

    fn parent(&self, v: u32) -> Option<u32> {
        self.parent.get(v as usize).copied().filter(|&p| p != NONE)
    }

    fn children(&self, v: u32) -> &[BlockId] {
        self.children.get(v as usize)
    }

    /// True if `a` is an ancestor of `b` or `b` itself, both in the tree.
    fn is_ancestor(&self, a: u32, b: u32) -> bool {
        let (Some(&pa), Some(&pb)) = (self.pre.get(a as usize), self.pre.get(b as usize)) else {
            return false;
        };
        pa != NONE && pb != NONE && pa <= pb && pb <= self.last[a as usize]
    }
}

/// The dominator tree of a function's CFG, over the blocks reachable from
/// the entry. It keeps the reverse postorder and predecessors it was built
/// from, which its users and [`DomTree::frontiers`] need as well.
#[derive(Debug, Clone)]
pub struct DomTree {
    root: BlockId,
    tree: Tree,
    rpo: Vec<BlockId>,
    preds: Preds,
}

impl DomTree {
    /// Computes dominators for `f` over reachable blocks.
    pub fn compute(f: &Func) -> Self {
        let rpo = f.rpo();
        let preds = Preds::compute(f, &rpo);
        let order: Vec<u32> = rpo.iter().map(|b| b.0).collect();
        let idom = compute_idoms(f.block_count(), &order, |v, out| {
            out.extend(preds.of(BlockId(v)).iter().map(|p| p.0));
        });
        DomTree {
            root: f.entry,
            tree: Tree::new(f.entry.0, idom),
            rpo,
            preds,
        }
    }

    /// The tree root (function entry).
    pub fn root(&self) -> BlockId {
        self.root
    }

    /// Immediate dominator of `b` (`None` for the root or unreachable).
    pub fn idom(&self, b: BlockId) -> Option<BlockId> {
        self.tree.parent(b.0).map(BlockId)
    }

    /// Children of `b` in the dominator tree, in ascending `BlockId` order.
    pub fn children(&self, b: BlockId) -> &[BlockId] {
        self.tree.children(b.0)
    }

    /// True if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b || self.tree.is_ancestor(a.0, b.0)
    }

    /// Dominator-tree preorder starting at the root, children in ascending
    /// `BlockId` order.
    pub fn preorder(&self) -> &[BlockId] {
        &self.tree.preorder
    }

    /// The reverse postorder of the blocks the tree covers.
    pub fn rpo(&self) -> &[BlockId] {
        &self.rpo
    }

    /// The predecessors of the blocks the tree covers.
    pub fn preds(&self) -> &Preds {
        &self.preds
    }

    /// Dominance frontiers (for SSA phi placement).
    pub fn frontiers(&self) -> Frontiers {
        // (runner, b) pairs in the order b is visited; the same b reached
        // from two predecessors of b lands on consecutive pairs.
        let mut pairs: Vec<(u32, BlockId)> = Vec::new();
        for &b in &self.rpo {
            let ps = self.preds.of(b);
            if ps.len() < 2 {
                continue;
            }
            let stop = self.idom(b);
            for &p in ps {
                let mut runner = p;
                while Some(runner) != stop {
                    pairs.push((runner.0, b));
                    match self.idom(runner) {
                        Some(n) if runner != self.root => runner = n,
                        _ => break,
                    }
                }
            }
        }
        Frontiers::from_pairs(self.tree.parent.len(), pairs)
    }
}

/// Dominance frontiers indexed by `BlockId`: `get(b)` lists each block in
/// `b`'s frontier once, in reverse postorder.
#[derive(Debug, Clone)]
pub struct Frontiers(DenseLists<BlockId>);

impl Frontiers {
    fn from_pairs(n: usize, pairs: Vec<(u32, BlockId)>) -> Frontiers {
        // All pairs of one frontier block are contiguous, so a repeated
        // (runner, b) pair is always a repeat of the runner's last entry.
        let mut last = vec![NONE; n];
        let keep: Vec<bool> = pairs
            .iter()
            .map(|&(r, b)| std::mem::replace(&mut last[r as usize], b.0) != b.0)
            .collect();
        let kept = pairs
            .iter()
            .zip(&keep)
            .filter(|(_, &k)| k)
            .map(|(&(r, b), _)| (r as usize, b));
        Frontiers(DenseLists::new(n, kept))
    }

    /// The dominance frontier of `b` (empty if it has none).
    pub fn get(&self, b: BlockId) -> &[BlockId] {
        self.0.get(b.0 as usize)
    }
}

/// The post-dominator tree, computed over the reversed CFG with a virtual
/// exit uniting all `Return` blocks (and any infinite-loop tails are simply
/// absent, which is safe for the check-elimination use).
#[derive(Debug, Clone)]
pub struct PostDomTree {
    /// Over nodes `0..=block_count`; node `block_count` is the virtual exit.
    tree: Tree,
    virt: u32,
    exits: Vec<BlockId>,
}

impl PostDomTree {
    /// Computes post-dominators for `f`.
    pub fn compute(f: &Func) -> Self {
        let rpo = f.rpo();
        let preds = Preds::compute(f, &rpo);
        let virt = f.block_count() as u32;
        let exits: Vec<BlockId> = rpo
            .iter()
            .copied()
            .filter(|&b| f.block(b).term.succ_count() == 0)
            .collect();
        // Reverse postorder of the reverse graph: DFS from the virtual exit
        // along CFG predecessor edges.
        let rev_succs = |v: u32| -> &[BlockId] {
            if v == virt {
                &exits
            } else {
                preds.of(BlockId(v))
            }
        };
        let mut seen = vec![false; virt as usize + 1];
        let mut order: Vec<u32> = Vec::with_capacity(rpo.len() + 1);
        let mut stack: Vec<(u32, usize)> = vec![(virt, 0)];
        seen[virt as usize] = true;
        while let Some(&mut (v, ref mut i)) = stack.last_mut() {
            let succs = rev_succs(v);
            if *i < succs.len() {
                let s = succs[*i].0;
                *i += 1;
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
        order.reverse();
        // Predecessors in the reverse graph are CFG successors, plus the
        // virtual exit for exit blocks.
        let ipdom = compute_idoms(virt as usize + 1, &order, |v, out| {
            let term = &f.block(BlockId(v)).term;
            if term.succ_count() == 0 {
                out.push(virt);
            }
            out.extend(term.succs().map(|s| s.0));
        });
        PostDomTree {
            tree: Tree::new(virt, ipdom),
            virt,
            exits,
        }
    }

    /// Immediate post-dominator (`None` if it is the virtual exit).
    pub fn ipdom(&self, b: BlockId) -> Option<BlockId> {
        self.tree
            .parent(b.0)
            .filter(|&p| p != self.virt)
            .map(BlockId)
    }

    /// True if `a` post-dominates `b` (reflexive): every path from `b` to
    /// function exit passes through `a`.
    pub fn post_dominates(&self, a: BlockId, b: BlockId) -> bool {
        a == b || (a.0 != self.virt && self.tree.is_ancestor(a.0, b.0))
    }

    /// Blocks that exit the function directly.
    pub fn exits(&self) -> &[BlockId] {
        &self.exits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Term;
    use hasp_vm::bytecode::{CmpOp, MethodId};

    /// entry(0) -> A(1) -> {B(2), C(3)} -> D(4) -> return; B -> D, C -> D
    fn diamond() -> Func {
        let mut f = Func::new("t", MethodId(0), 0);
        let d = f.add_block(Term::Return(None));
        let b = f.add_block(Term::Jump(d));
        let c = f.add_block(Term::Jump(d));
        let x = f.vreg();
        let y = f.vreg();
        let a = f.add_block(Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: b,
            f: c,
            t_count: 1,
            f_count: 1,
        });
        f.block_mut(f.entry).term = Term::Jump(a);
        f
    }

    #[test]
    fn diamond_doms() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let (a, b, c, d) = (BlockId(4), BlockId(2), BlockId(3), BlockId(1));
        assert_eq!(dt.idom(b), Some(a));
        assert_eq!(dt.idom(c), Some(a));
        assert_eq!(dt.idom(d), Some(a));
        assert!(dt.dominates(f.entry, d));
        assert!(dt.dominates(a, b));
        assert!(!dt.dominates(b, d));
        assert!(dt.dominates(d, d));
    }

    #[test]
    fn diamond_frontiers() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let df = dt.frontiers();
        let (b, c, d) = (BlockId(2), BlockId(3), BlockId(1));
        assert_eq!(df.get(b), &[d]);
        assert_eq!(df.get(c), &[d]);
        assert!(df.get(d).is_empty());
        assert!(df.get(BlockId(99)).is_empty());
    }

    #[test]
    fn diamond_postdoms() {
        let f = diamond();
        let pdt = PostDomTree::compute(&f);
        let (a, b, c, d) = (BlockId(4), BlockId(2), BlockId(3), BlockId(1));
        assert!(pdt.post_dominates(d, a));
        assert!(pdt.post_dominates(d, b));
        assert!(!pdt.post_dominates(b, a));
        assert_eq!(pdt.ipdom(a), Some(d));
        assert!(pdt.post_dominates(c, c));
        assert_eq!(pdt.exits(), &[d]);
    }

    #[test]
    fn loop_doms() {
        // entry -> head -> body -> head; head -> exit
        let mut f = Func::new("l", MethodId(0), 0);
        let exit = f.add_block(Term::Return(None));
        let x = f.vreg();
        let y = f.vreg();
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: x,
            b: y,
            t: body,
            f: exit,
            t_count: 9,
            f_count: 1,
        };
        f.block_mut(f.entry).term = Term::Jump(head);
        let dt = DomTree::compute(&f);
        assert_eq!(dt.idom(body), Some(head));
        assert_eq!(dt.idom(exit), Some(head));
        assert!(dt.dominates(head, body));
        let pdt = PostDomTree::compute(&f);
        assert!(pdt.post_dominates(head, body));
        assert!(pdt.post_dominates(exit, head));
    }

    #[test]
    fn preorder_starts_at_root() {
        let f = diamond();
        let dt = DomTree::compute(&f);
        let pre = dt.preorder();
        assert_eq!(pre[0], f.entry);
        assert_eq!(pre.len(), 5);
    }
}
