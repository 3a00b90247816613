//! Cold-path classification and warm-reachability queries over profiled CFGs.

use hasp_ir::{BlockId, BlockSet, Func, Preds};

use crate::config::RegionConfig;

/// True if `count` of `total` executions is a cold share: nothing executed,
/// or the share is below the configured bias threshold (paper: 1%).
pub fn share_is_cold(cfg: &RegionConfig, count: u64, total: u64) -> bool {
    total == 0 || (count as f64) < cfg.cold_threshold * (total as f64)
}

/// True if the edge `from -> to` is cold: its share of the source block's
/// executions is (see [`share_is_cold`]).
pub fn edge_is_cold(f: &Func, cfg: &RegionConfig, from: BlockId, to: BlockId) -> bool {
    share_is_cold(cfg, f.edge_count(from, to), f.block(from).freq)
}

/// True if `b` itself is cold relative to the hottest block of the function
/// (never-executed blocks are always cold).
pub fn block_is_cold(f: &Func, cfg: &RegionConfig, b: BlockId, max_freq: u64) -> bool {
    let freq = f.block(b).freq;
    if freq == 0 {
        return true;
    }
    (freq as f64) < cfg.cold_threshold * (max_freq as f64)
}

/// `HASCALLONWARMPATH` from Algorithm 1: is a (non-inlined) call reachable
/// from `start` along non-cold edges while staying within `blocks`?
pub fn has_call_on_warm_path(
    f: &Func,
    cfg: &RegionConfig,
    start: BlockId,
    blocks: &BlockSet,
) -> bool {
    let mut seen = BlockSet::new();
    let mut stack = vec![start];
    while let Some(b) = stack.pop() {
        if !blocks.contains(b) || !seen.insert(b) {
            continue;
        }
        if f.block(b).insts.iter().any(|i| i.op.is_call()) {
            return true;
        }
        stack.extend(f.succs(b).filter(|&s| !edge_is_cold(f, cfg, b, s)));
    }
    false
}

/// The dominant (hottest) successor of `b`, if any edge executed.
pub fn dominant_succ(f: &Func, b: BlockId) -> Option<BlockId> {
    f.succs(b)
        .map(|s| (s, f.edge_count(b, s)))
        .max_by_key(|(s, c)| (*c, u32::MAX - s.0))
        .filter(|(_, c)| *c > 0)
        .map(|(s, _)| s)
}

/// The dominant (hottest) predecessor of `b`, if any edge executed.
pub fn dominant_pred(f: &Func, preds: &Preds, b: BlockId) -> Option<BlockId> {
    preds
        .of(b)
        .iter()
        .map(|p| (*p, f.edge_count(*p, b)))
        .max_by_key(|(p, c)| (*c, u32::MAX - p.0))
        .filter(|(_, c)| *c > 0)
        .map(|(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::Term;
    use hasp_vm::bytecode::{CmpOp, MethodId};
    use hasp_vm::MethodId as _MID;

    fn biased_branch(t_count: u64, f_count: u64) -> Func {
        let mut f = Func::new("b", MethodId(0), 0);
        let hot = f.add_block(Term::Return(None));
        let cold = f.add_block(Term::Return(None));
        let a = f.vreg();
        let b = f.vreg();
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a,
            b,
            t: cold,
            f: hot,
            t_count,
            f_count,
        };
        f.block_mut(f.entry).freq = t_count + f_count;
        f.block_mut(hot).freq = f_count;
        f.block_mut(cold).freq = t_count;
        f
    }

    #[test]
    fn cold_edges_below_one_percent() {
        let cfg = RegionConfig::default();
        let f = biased_branch(1, 999);
        assert!(edge_is_cold(&f, &cfg, f.entry, BlockId(2)));
        assert!(!edge_is_cold(&f, &cfg, f.entry, BlockId(1)));

        let even = biased_branch(500, 500);
        assert!(!edge_is_cold(&even, &cfg, even.entry, BlockId(1)));
        assert!(!edge_is_cold(&even, &cfg, even.entry, BlockId(2)));
    }

    #[test]
    fn unexecuted_block_edges_cold() {
        let cfg = RegionConfig::default();
        let f = biased_branch(0, 0);
        assert!(edge_is_cold(&f, &cfg, f.entry, BlockId(1)));
        assert!(block_is_cold(&f, &cfg, BlockId(1), 100));
    }

    #[test]
    fn dominant_succ_picks_hottest() {
        let f = biased_branch(10, 90);
        assert_eq!(dominant_succ(&f, f.entry), Some(BlockId(1)));
        let g = biased_branch(90, 10);
        assert_eq!(dominant_succ(&g, g.entry), Some(BlockId(2)));
        let z = biased_branch(0, 0);
        assert_eq!(dominant_succ(&z, z.entry), None);
    }

    #[test]
    fn warm_call_reachability() {
        let cfg = RegionConfig::default();
        let mut f = biased_branch(1, 999);
        // Put a call in the cold target: not reachable on warm paths.
        f.block_mut(BlockId(2))
            .insts
            .push(hasp_ir::Inst::effect(hasp_ir::Op::Call {
                method: _MID(1),
                args: vec![],
            }));
        let blocks: BlockSet = f.block_ids().into_iter().collect();
        assert!(!has_call_on_warm_path(&f, &cfg, f.entry, &blocks));
        // Put one in the hot target: reachable.
        f.block_mut(BlockId(1))
            .insts
            .push(hasp_ir::Inst::effect(hasp_ir::Op::Call {
                method: _MID(1),
                args: vec![],
            }));
        assert!(has_call_on_warm_path(&f, &cfg, f.entry, &blocks));
    }
}
