//! Algorithm 1: `SELECTBOUNDARIES` — choosing the blocks that become atomic
//! region entries.
//!
//! Three phases, exactly as in the paper:
//! 1. loop headers of "large" loops (long iterations, high trip counts, or a
//!    call reachable along non-cold paths) become per-iteration boundaries;
//! 2. inlined methods containing selected loops or warm calls are un-inlined
//!    (limits code bloat — part of partial inlining);
//! 3. boundaries are placed along acyclic dominant paths, choosing the
//!    candidate subset that minimizes Equation 1.

use std::collections::BTreeSet;

use hasp_ir::{BlockId, BlockSet, DomTree, Func, LoopForest, Term};

use crate::cold::{block_is_cold, has_call_on_warm_path};
use crate::config::RegionConfig;
use crate::normalize::is_call_block;
use crate::partition::{select_boundaries as partition_select, Candidate};
use crate::site::{uninline_checked, InlineSite};
use crate::trace::{loop_weight, trace_dominant_path};

/// The outcome of boundary selection.
#[derive(Debug, Clone)]
pub struct BoundarySelection {
    /// Blocks that will become atomic region entries.
    pub boundaries: BTreeSet<BlockId>,
    /// Indices into the sites vector of methods un-inlined during step 2.
    pub pruned_sites: Vec<usize>,
}

/// Runs `SELECTBOUNDARIES` on `f`, un-inlining pruned sites in place.
pub fn select_boundaries(
    f: &mut Func,
    sites: &[InlineSite],
    cfg: &RegionConfig,
) -> BoundarySelection {
    let mut selected: BTreeSet<BlockId> = BTreeSet::new();

    // ---- Phase 1: loop boundaries (innermost to outermost). ----
    {
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let preds = dt.preds();
        let max_freq = f
            .block_ids()
            .iter()
            .map(|b| f.block(*b).freq)
            .max()
            .unwrap_or(0);
        for l in forest.post_order() {
            let header = l.header;
            // Formation is profile-driven: loops that barely execute are not
            // worth speculating on (same 1% hotness rule as acyclic seeds).
            if f.block(header).freq < max_freq / cfg.seed_fraction {
                continue;
            }
            // Entries into the loop = executions of outside->header edges.
            let entries: u64 = preds
                .of(header)
                .iter()
                .filter(|&&p| !l.blocks.contains(p))
                .map(|&p| f.edge_count(p, header))
                .sum();
            if entries == 0 {
                continue; // never-entered (cold) loop
            }
            let weight = loop_weight(f, l);
            let path_len = weight as f64 / entries as f64;
            let trip_count = f.block(header).freq as f64 / entries as f64;
            let has_warm_call = has_call_on_warm_path(f, cfg, header, &l.blocks);
            if (path_len >= cfg.loop_path_threshold
                || has_warm_call
                || trip_count > cfg.max_encapsulated_trip_count)
                && !cfg.is_excluded(header)
            {
                selected.insert(header);
            }
        }
    }

    // ---- Phase 2: prune inlined methods containing boundaries/warm calls. ----
    let mut pruned_sites = Vec::new();
    for (i, site) in sites.iter().enumerate() {
        if !site.is_live(f) {
            continue;
        }
        let has_warm_call = has_call_on_warm_path(f, cfg, site.entry, &site.blocks);
        let has_selected_loop = selected.iter().any(|&b| site.blocks.contains(b));
        if (has_warm_call || has_selected_loop) && uninline_checked(f, site) {
            pruned_sites.push(i);
            // Boundaries inside the removed body are gone.
            selected.retain(|b| !f.block(*b).dead);
        }
    }

    // ---- Phase 3: boundaries along acyclic dominant paths. ----
    {
        let dt = DomTree::compute(f);
        let forest = LoopForest::compute(f, &dt);
        let preds = dt.preds();

        // Candidate-kind blocks: loop pre-header-ish blocks (outside preds of
        // headers) and loop-exit targets.
        let mut structural = BlockSet::new();
        for l in forest.post_order() {
            for &p in preds.of(l.header) {
                if !l.blocks.contains(p) {
                    structural.insert(p);
                }
            }
            structural.extend(l.exit_targets(f));
        }

        // Trace boundaries: method entry, exits, call blocks, and already
        // selected region boundaries.
        let mut trace_bounds: BlockSet = selected.iter().copied().collect();
        trace_bounds.insert(f.entry);
        for b in f.block_ids() {
            if matches!(f.block(b).term, Term::Return(_)) || is_call_block(f, b) {
                trace_bounds.insert(b);
            }
        }

        let mut blocks_by_freq: Vec<BlockId> = f.block_ids();
        blocks_by_freq.sort_by_key(|b| std::cmp::Reverse((f.block(*b).freq, u32::MAX - b.0)));
        let max_freq = blocks_by_freq
            .first()
            .map(|b| f.block(*b).freq)
            .unwrap_or(0);
        if max_freq == 0 {
            return BoundarySelection {
                boundaries: selected,
                pruned_sites,
            };
        }

        let mut visited = BlockSet::new();
        for seed in blocks_by_freq {
            if visited.contains(seed)
                || f.block(seed).freq < max_freq / cfg.seed_fraction
                || block_is_cold(f, cfg, seed, max_freq)
            {
                continue;
            }
            let path = trace_dominant_path(f, preds, &forest, seed, &trace_bounds);
            visited.extend(path.iter().copied());
            if path.len() < 2 {
                continue;
            }
            // Candidates: path start & end plus structural blocks on the path.
            // A block that heads a hopped-over loop contributes the loop's
            // average dynamic path length, not just its own ops.
            let mut prefix = 0u64;
            let mut candidates: Vec<Candidate> = Vec::new();
            for (i, &b) in path.iter().enumerate() {
                let is_candidate = i == 0 || i == path.len() - 1 || structural.contains(b);
                if is_candidate {
                    candidates.push(Candidate {
                        path_index: i,
                        prefix_ops: prefix,
                    });
                }
                let hopped_loop = forest
                    .headed_by(b)
                    .filter(|l| i + 1 >= path.len() || !l.blocks.contains(path[i + 1]));
                prefix += match hopped_loop {
                    Some(l) => {
                        let entries: u64 = preds
                            .of(b)
                            .iter()
                            .filter(|&&p| !l.blocks.contains(p))
                            .map(|&p| f.edge_count(p, b))
                            .sum();
                        loop_weight(f, l)
                            .checked_div(entries)
                            .map_or_else(|| f.block(b).insts.len() as u64 + 1, |w| w.max(1))
                    }
                    None => f.block(b).insts.len() as u64 + 1,
                };
            }
            let chosen = partition_select(cfg.target_region_size, &candidates);
            for ci in chosen {
                let mut b = path[candidates[ci].path_index];
                // A call cannot host an aregion_begin; the region the paper
                // wants "often begin[s] immediately after the call returns"
                // — use the continuation.
                if is_call_block(f, b) && f.block(b).term.succ_count() == 1 {
                    b = f.block(b).term.succ(0);
                }
                // A block whose dominant predecessor is already a region
                // boundary is covered by that region; a second begin here
                // would only fragment it.
                let covered =
                    crate::cold::dominant_pred(f, preds, b).is_some_and(|p| selected.contains(&p));
                if !covered && usable_boundary(f, b) && !cfg.is_excluded(b) {
                    selected.insert(b);
                    trace_bounds.insert(b);
                }
            }
        }
    }

    BoundarySelection {
        boundaries: selected,
        pruned_sites,
    }
}

/// A block can host an `aregion_begin` unless it is a call block or an
/// empty return block (a region containing only `return` is useless).
fn usable_boundary(f: &Func, b: BlockId) -> bool {
    if is_call_block(f, b) {
        return false;
    }
    if matches!(f.block(b).term, Term::Return(_))
        && f.block(b).insts.len() <= f.block(b).phi_count()
    {
        return false;
    }
    if matches!(f.block(b).term, Term::RegionBegin { .. }) {
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{Inst, Op};
    use hasp_vm::bytecode::{BinOp, CmpOp, MethodId};

    /// A hot loop whose body is `body_ops` ops long, iterating `iters` times
    /// per entry, entered `entries` times.
    fn loopy(body_ops: usize, iters: u64, entries: u64) -> Func {
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
            t_count: iters * entries,
            f_count: entries,
        };
        for _ in 0..body_ops {
            let d = f.vreg();
            f.block_mut(body)
                .insts
                .push(Inst::with_dst(d, Op::Bin(BinOp::Add, x, y)));
        }
        f.block_mut(f.entry).term = Term::Jump(head);
        f.block_mut(f.entry).freq = entries;
        f.block_mut(head).freq = entries * (iters + 1);
        f.block_mut(body).freq = entries * iters;
        f.block_mut(exit).freq = entries;
        f
    }

    #[test]
    fn long_iteration_loop_gets_per_iteration_boundary() {
        // 300 ops per iteration * 10 iterations per entry >> 200.
        let mut f = loopy(300, 10, 5);
        let sel = select_boundaries(&mut f, &[], &RegionConfig::default());
        assert!(sel.boundaries.contains(&BlockId(2)), "{:?}", sel.boundaries);
    }

    #[test]
    fn short_small_loop_not_selected_per_iteration() {
        // 5 ops per iteration, 4 iterations per entry: whole loop fits in a
        // region, so the header is not selected by the loop phase. The
        // acyclic phase may still select boundaries elsewhere.
        let mut f = loopy(5, 4, 1000);
        let sel = select_boundaries(&mut f, &[], &RegionConfig::default());
        // Header may appear only via acyclic selection of structural blocks;
        // the pre-header (entry) is the expected boundary.
        assert!(
            sel.boundaries.contains(&f.entry) || !sel.boundaries.contains(&BlockId(2)),
            "small hot loop should be encapsulated whole: {:?}",
            sel.boundaries
        );
    }

    #[test]
    fn high_trip_count_forces_per_iteration() {
        // Tiny body but 10_000 iterations per entry: footprint risk.
        let mut f = loopy(5, 10_000, 2);
        let sel = select_boundaries(&mut f, &[], &RegionConfig::default());
        assert!(sel.boundaries.contains(&BlockId(2)), "{:?}", sel.boundaries);
    }

    #[test]
    fn loop_with_warm_call_selected() {
        let mut f = loopy(5, 4, 1000);
        f.block_mut(BlockId(3)).insts.push(Inst::effect(Op::Call {
            method: MethodId(1),
            args: vec![],
        }));
        let sel = select_boundaries(&mut f, &[], &RegionConfig::default());
        assert!(sel.boundaries.contains(&BlockId(2)), "{:?}", sel.boundaries);
    }

    #[test]
    fn excluded_boundary_is_never_selected() {
        // The same hot loop that `long_iteration_loop_gets_per_iteration_
        // boundary` proves selects BlockId(2) — excluding that block must
        // suppress it in both the loop phase and the acyclic phase.
        let mut f = loopy(300, 10, 5);
        let cfg = RegionConfig::default().with_excluded([2]);
        let sel = select_boundaries(&mut f, &[], &cfg);
        assert!(
            !sel.boundaries.contains(&BlockId(2)),
            "excluded boundary reappeared: {:?}",
            sel.boundaries
        );
    }

    #[test]
    fn cold_function_selects_nothing() {
        let mut f = loopy(300, 10, 5);
        for b in f.block_ids() {
            f.block_mut(b).freq = 0;
            if let Term::Branch {
                t_count, f_count, ..
            } = &mut f.block_mut(b).term
            {
                *t_count = 0;
                *f_count = 0;
            }
        }
        let sel = select_boundaries(&mut f, &[], &RegionConfig::default());
        assert!(sel.boundaries.is_empty());
    }
}
