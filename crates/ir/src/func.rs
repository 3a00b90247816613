//! Functions: CFG container, block management, traversal utilities.

use std::ops::Index;

use hasp_vm::bytecode::MethodId;

use crate::dense::DenseLists;
use crate::instr::{AssertId, BlockId, Inst, Op, RegionId, Succs, Term, VReg};

/// A basic block.
#[derive(Debug, Clone)]
pub struct Block {
    /// Instructions (phis, if any, come first).
    pub insts: Vec<Inst>,
    /// Terminator.
    pub term: Term,
    /// Profiled execution count.
    pub freq: u64,
    /// The atomic region this block belongs to, if it is a speculative copy.
    pub region: Option<RegionId>,
    /// Dead blocks are skipped by traversals (tombstoned rather than removed
    /// so `BlockId`s stay stable).
    pub dead: bool,
}

impl Block {
    fn new(term: Term) -> Self {
        Block {
            insts: Vec::new(),
            term,
            freq: 0,
            region: None,
            dead: false,
        }
    }

    /// Iterator over the phi instructions at the head of the block.
    pub fn phis(&self) -> impl Iterator<Item = &Inst> {
        self.insts.iter().take_while(|i| matches!(i.op, Op::Phi(_)))
    }

    /// Number of leading phi instructions.
    pub fn phi_count(&self) -> usize {
        self.insts
            .iter()
            .take_while(|i| matches!(i.op, Op::Phi(_)))
            .count()
    }
}

/// Metadata about one atomic region of a function. Populated by region
/// formation (`hasp-core`).
#[derive(Debug, Clone)]
pub struct RegionInfo {
    /// The block whose terminator is the `RegionBegin`.
    pub begin: BlockId,
    /// Non-speculative alternate entry (the `<alt PC>`).
    pub abort_target: BlockId,
    /// Static size estimate (HIR ops) at formation time.
    pub size_estimate: u64,
}

/// Metadata about one assertion: where it came from, for abort diagnosis and
/// adaptive recompilation (paper §3.2, §7).
#[derive(Debug, Clone)]
pub struct AssertInfo {
    /// The region the assert belongs to.
    pub region: RegionId,
    /// Human-readable provenance (e.g. "cold branch m:12").
    pub origin: String,
}

/// A function under compilation: CFG plus region/assert metadata.
#[derive(Debug, Clone)]
pub struct Func {
    /// Name (for diagnostics).
    pub name: String,
    /// The bytecode method this was translated from.
    pub method: MethodId,
    /// Number of parameters; on entry, `VReg(0)..VReg(params-1)` hold them.
    pub params: u16,
    /// Entry block.
    pub entry: BlockId,
    blocks: Vec<Block>,
    next_vreg: u32,
    /// Atomic regions formed in this function, indexed by [`RegionId`].
    pub regions: Vec<RegionInfo>,
    /// Assertions, indexed by [`AssertId`].
    pub asserts: Vec<AssertInfo>,
}

impl Func {
    /// Creates a function with a single empty entry block ending in
    /// `Return(None)`.
    pub fn new(name: impl Into<String>, method: MethodId, params: u16) -> Self {
        Func {
            name: name.into(),
            method,
            params,
            entry: BlockId(0),
            blocks: vec![Block::new(Term::Return(None))],
            next_vreg: u32::from(params),
            regions: Vec::new(),
            asserts: Vec::new(),
        }
    }

    /// Allocates a fresh SSA value.
    pub fn vreg(&mut self) -> VReg {
        let v = VReg(self.next_vreg);
        self.next_vreg += 1;
        v
    }

    /// Number of SSA values allocated so far.
    pub fn vreg_count(&self) -> u32 {
        self.next_vreg
    }

    /// Appends a new block with the given terminator.
    pub fn add_block(&mut self, term: Term) -> BlockId {
        self.blocks.push(Block::new(term));
        BlockId((self.blocks.len() - 1) as u32)
    }

    /// Shared access to a block.
    pub fn block(&self, b: BlockId) -> &Block {
        &self.blocks[b.0 as usize]
    }

    /// Mutable access to a block.
    pub fn block_mut(&mut self, b: BlockId) -> &mut Block {
        &mut self.blocks[b.0 as usize]
    }

    /// Total number of block slots (including dead ones).
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Ids of all live blocks in allocation order.
    pub fn block_ids(&self) -> Vec<BlockId> {
        (0..self.blocks.len())
            .map(|i| BlockId(i as u32))
            .filter(|b| !self.block(*b).dead)
            .collect()
    }

    /// Successors of `b` in edge order.
    pub fn succs(&self, b: BlockId) -> Succs<'_> {
        self.block(b).term.succs()
    }

    /// Predecessors of the blocks reachable from the entry.
    pub fn preds(&self) -> Preds {
        Preds::compute(self, &self.rpo())
    }

    /// Blocks reachable from the entry, in reverse postorder.
    pub fn rpo(&self) -> Vec<BlockId> {
        let mut order = Vec::with_capacity(self.blocks.len());
        let mut seen = vec![false; self.blocks.len()];
        // Iterative DFS computing postorder: (block, next edge to follow).
        let mut stack = vec![(self.entry, 0usize)];
        seen[self.entry.0 as usize] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            let term = &self.block(b).term;
            if *i < term.succ_count() {
                let s = term.succ(*i);
                *i += 1;
                if !seen[s.0 as usize] {
                    seen[s.0 as usize] = true;
                    stack.push((s, 0));
                }
            } else {
                order.push(b);
                stack.pop();
            }
        }
        order.reverse();
        order
    }

    /// Blocks reachable from the entry, in reverse postorder (the same
    /// list as [`Func::rpo`]).
    pub fn reachable(&self) -> Vec<BlockId> {
        self.rpo()
    }

    /// Tombstones blocks not reachable from the entry. Returns how many died.
    pub fn remove_unreachable(&mut self) -> usize {
        let preds = self.preds();
        let mut killed = 0;
        for (i, blk) in self.blocks.iter_mut().enumerate() {
            if preds.get(BlockId(i as u32)).is_none() && !blk.dead {
                blk.dead = true;
                blk.insts.clear();
                killed += 1;
            }
        }
        // Phis may reference dead predecessors; prune those inputs.
        if killed > 0 {
            for (i, blk) in self.blocks.iter_mut().enumerate() {
                let pred_set = preds.of(BlockId(i as u32));
                for inst in &mut blk.insts {
                    if let Op::Phi(ins) = &mut inst.op {
                        ins.retain(|(p, _)| pred_set.contains(p));
                    }
                }
            }
        }
        killed
    }

    /// Profiled count of the edge `from -> to` (0 if absent or unprofiled).
    pub fn edge_count(&self, from: BlockId, to: BlockId) -> u64 {
        match &self.block(from).term {
            Term::Jump(b) => {
                if *b == to {
                    self.block(from).freq
                } else {
                    0
                }
            }
            Term::Branch {
                t,
                f,
                t_count,
                f_count,
                ..
            } => {
                let mut n = 0;
                if *t == to {
                    n += t_count;
                }
                if *f == to {
                    n += f_count;
                }
                n
            }
            Term::Switch {
                targets, default, ..
            } => {
                let mut n = 0;
                for (b, c) in targets {
                    if *b == to {
                        n += c;
                    }
                }
                if default.0 == to {
                    n += default.1;
                }
                n
            }
            Term::Return(_) => 0,
            Term::RegionBegin { body, .. } => {
                if *body == to {
                    self.block(from).freq
                } else {
                    0
                }
            }
        }
    }

    /// Total static instruction count over live blocks (HIR ops; used for
    /// the paper's R = 200 region-size budget).
    pub fn size(&self) -> u64 {
        self.block_ids()
            .iter()
            .map(|b| self.block(*b).insts.len() as u64 + 1)
            .sum()
    }

    /// Registers a new assert and returns its id.
    pub fn new_assert(&mut self, region: RegionId, origin: impl Into<String>) -> AssertId {
        self.asserts.push(AssertInfo {
            region,
            origin: origin.into(),
        });
        AssertId((self.asserts.len() - 1) as u32)
    }

    /// Registers a new region and returns its id.
    pub fn new_region(&mut self, info: RegionInfo) -> RegionId {
        self.regions.push(info);
        RegionId((self.regions.len() - 1) as u32)
    }

    /// Pretty-prints the function for debugging and golden tests.
    pub fn display(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "func {} (params {}) entry {}",
            self.name, self.params, self.entry
        );
        for b in self.block_ids() {
            let blk = self.block(b);
            let region = blk
                .region
                .map(|r| format!(" region r{}", r.0))
                .unwrap_or_default();
            let _ = writeln!(s, "{b}: freq {}{}", blk.freq, region);
            for i in &blk.insts {
                match i.dst {
                    Some(d) => {
                        let _ = writeln!(s, "  {d} = {:?}", i.op);
                    }
                    None => {
                        let _ = writeln!(s, "  {:?}", i.op);
                    }
                }
            }
            let _ = writeln!(s, "  -> {:?}", blk.term);
        }
        s
    }
}

/// Predecessors of the blocks reachable from the entry, indexed by
/// [`BlockId`]: one flat edge list with per-block offsets, so a query is a
/// slice and building costs O(blocks + edges). A block has one entry per
/// edge into it, ordered by the predecessor's position in reverse
/// postorder (edge order within one predecessor). Unreachable blocks —
/// and blocks created after the snapshot — have no entry
/// ([`Preds::get`] is `None`), which tells them apart from a reachable
/// block with no predecessors (`Some(&[])`, the entry).
#[derive(Debug, Clone)]
pub struct Preds {
    lists: DenseLists<BlockId>,
    reachable: Vec<bool>,
}

impl Preds {
    /// Predecessors over `rpo`, the reverse postorder of `f`.
    pub(crate) fn compute(f: &Func, rpo: &[BlockId]) -> Preds {
        let mut reachable = vec![false; f.block_count()];
        for &b in rpo {
            reachable[b.0 as usize] = true;
        }
        let edges = rpo
            .iter()
            .flat_map(|&b| f.succs(b).map(move |s| (s.0 as usize, b)));
        Preds {
            lists: DenseLists::new(f.block_count(), edges),
            reachable,
        }
    }

    /// Predecessors of `b`, or `None` if `b` is unreachable.
    #[inline]
    pub fn get(&self, b: BlockId) -> Option<&[BlockId]> {
        let i = b.0 as usize;
        self.reachable
            .get(i)
            .is_some_and(|&r| r)
            .then(|| self.lists.get(i))
    }

    /// Predecessors of `b` (empty if `b` is unreachable).
    #[inline]
    pub fn of(&self, b: BlockId) -> &[BlockId] {
        self.get(b).unwrap_or(&[])
    }

    /// Number of edges into `b` (0 if `b` is unreachable).
    #[inline]
    pub fn count(&self, b: BlockId) -> usize {
        self.of(b).len()
    }
}

impl Index<BlockId> for Preds {
    type Output = [BlockId];

    /// Predecessors of `b`. Panics if `b` is unreachable.
    fn index(&self, b: BlockId) -> &[BlockId] {
        self.get(b)
            .unwrap_or_else(|| panic!("{b} is not reachable from the entry"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::bytecode::CmpOp;

    fn diamond() -> Func {
        // entry -> (then | else) -> join -> return
        let mut f = Func::new("d", MethodId(0), 0);
        let join = f.add_block(Term::Return(None));
        let then_ = f.add_block(Term::Jump(join));
        let else_ = f.add_block(Term::Jump(join));
        let a = f.vreg();
        let b = f.vreg();
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Lt,
            a,
            b,
            t: then_,
            f: else_,
            t_count: 30,
            f_count: 70,
        };
        f
    }

    #[test]
    fn rpo_visits_all_reachable_once() {
        let f = diamond();
        let rpo = f.rpo();
        assert_eq!(rpo.len(), 4);
        assert_eq!(rpo[0], f.entry);
        // join must come after both branches.
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        assert!(pos(BlockId(1)) > pos(BlockId(2)));
        assert!(pos(BlockId(1)) > pos(BlockId(3)));
    }

    #[test]
    fn preds_of_join() {
        let mut f = diamond();
        let orphan = f.add_block(Term::Jump(BlockId(1)));
        let preds = f.preds();
        let mut p = preds[BlockId(1)].to_vec();
        p.sort();
        assert_eq!(p, vec![BlockId(2), BlockId(3)]);
        // The entry is reachable with no predecessors; the orphan (and a
        // block created after the snapshot) are unreachable.
        assert_eq!(preds.get(f.entry), Some(&[][..]));
        assert_eq!(preds.get(orphan), None);
        assert_eq!(preds.count(orphan), 0);
        let later = f.add_block(Term::Return(None));
        assert_eq!(preds.get(later), None);
    }

    #[test]
    fn preds_list_one_entry_per_edge_in_rpo() {
        // A branch whose arms both reach the join through the same block
        // contributes one entry per edge.
        let mut f = diamond();
        let x = f.vreg();
        f.block_mut(BlockId(2)).term = Term::Branch {
            op: CmpOp::Eq,
            a: x,
            b: x,
            t: BlockId(1),
            f: BlockId(1),
            t_count: 1,
            f_count: 1,
        };
        let preds = f.preds();
        let rpo = f.rpo();
        let pos = |b: BlockId| rpo.iter().position(|x| *x == b).unwrap();
        let join = &preds[BlockId(1)];
        assert_eq!(join.len(), 3);
        assert!(join.windows(2).all(|w| pos(w[0]) <= pos(w[1])));
    }

    #[test]
    fn unreachable_removed_and_phis_pruned() {
        let mut f = diamond();
        // Add an unreachable block feeding a phi in join.
        let orphan = f.add_block(Term::Jump(BlockId(1)));
        let v = f.vreg();
        let w = f.vreg();
        let d = f.vreg();
        f.block_mut(BlockId(1)).insts.push(Inst::with_dst(
            d,
            Op::Phi(vec![(BlockId(2), v), (BlockId(3), v), (orphan, w)]),
        ));
        assert_eq!(f.remove_unreachable(), 1);
        match &f.block(BlockId(1)).insts[0].op {
            Op::Phi(ins) => assert_eq!(ins.len(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn edge_counts() {
        let f = diamond();
        assert_eq!(f.edge_count(f.entry, BlockId(2)), 30);
        assert_eq!(f.edge_count(f.entry, BlockId(3)), 70);
        assert_eq!(
            f.edge_count(BlockId(2), BlockId(1)),
            f.block(BlockId(2)).freq
        );
    }
}
