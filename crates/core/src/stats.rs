//! Static statistics over formed regions (the dynamic counterparts — Table 3
//! coverage/size/abort rate — come from the hardware simulator).

use hasp_ir::{Func, Op, Term};

/// Static per-function region statistics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StaticRegionStats {
    /// Number of atomic regions formed.
    pub regions: usize,
    /// Total asserts across regions.
    pub asserts: usize,
    /// Total HIR ops inside region copies.
    pub region_ops: u64,
    /// Total HIR ops in the function.
    pub total_ops: u64,
    /// Conditional branches remaining inside regions.
    pub region_branches: usize,
    /// `aregion_end` commit points.
    pub commits: usize,
}

impl StaticRegionStats {
    /// Collects statistics from a formed function.
    pub fn collect(f: &Func) -> Self {
        let mut s = StaticRegionStats {
            regions: f.regions.len(),
            ..Default::default()
        };
        for b in f.block_ids() {
            let blk = f.block(b);
            let ops = blk.insts.len() as u64 + 1;
            s.total_ops += ops;
            if blk.region.is_some() {
                s.region_ops += ops;
                if matches!(blk.term, Term::Branch { .. } | Term::Switch { .. }) {
                    s.region_branches += 1;
                }
                for i in &blk.insts {
                    match i.op {
                        Op::Assert { .. } => s.asserts += 1,
                        Op::RegionEnd(_) => s.commits += 1,
                        _ => {}
                    }
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::bytecode::MethodId;

    #[test]
    fn empty_function_zero_stats() {
        let f = Func::new("t", MethodId(0), 0);
        let s = StaticRegionStats::collect(&f);
        assert_eq!(s.regions, 0);
        assert!(s.total_ops > 0);
    }
}
