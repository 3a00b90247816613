//! Decoded superblock metadata for the batched-dispatch hot path.
//!
//! A superblock is the maximal straight-line run of uops starting at a given
//! pc: it extends through interior uops (ALU, memory, checks, allocs,
//! intrinsics) and ends at — and includes — the first *terminator*: any
//! control transfer, call/return, or atomic-region primitive. Markers end a
//! block without joining one (they are architecturally free and snapshot
//! mid-stream counters, so they must never be folded into a batch).
//!
//! The index is a per-pc suffix table: `blocks[pc]` describes the block that
//! *starts* at `pc`. Interior pcs chain to the same terminator, so when the
//! machine redirects out of a block at interior uop `i` (an in-region abort,
//! a trap, an overflow), `blocks[i + 1]` is exactly the unexecuted suffix —
//! the engine subtracts it from the batched accounting and the result is
//! bit-identical to the per-uop reference (see `DESIGN.md` §Dispatch).
//!
//! Formation is a single backward scan at `CodeCache` install time, O(uops),
//! so cold methods pay nothing at run time and the table is shared across
//! machines like the uop stream itself.

use hasp_vm::bytecode::CmpOp;

use crate::cache::NO_SITE;
use crate::uop::{MReg, Uop, UOP_CLASSES};

/// Simulated address of the thread-local yield flag polled by safepoints —
/// the one data address in this ISA that is a seal-time constant.
pub const YIELD_FLAG_ADDR: u64 = 0x100;

/// A block terminator decoded at seal time: the `next_block` link the
/// chained dispatch loop follows without re-reading (or re-matching) the
/// full [`Uop`] stream. Terminators whose payload lives on the heap (call
/// argument lists, `jmp_ind` tables) or that must go through the shared
/// `step` semantics keep a [`SbTerm::Decode`] sentinel and are fetched from
/// the uop stream on dispatch.
///
/// Every variant stores only `Copy` data, so the whole terminator rides in
/// the [`SbInfo`] the engine has already fetched — chaining block-to-block
/// costs one enum match on seal-time metadata, not a fetch/decode of the
/// terminator uop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SbTerm {
    /// Fetch the terminator uop and dispatch it in the engine (calls,
    /// indirect jumps, `Unreachable`, and blocks sealed early by a marker
    /// or end-of-stream whose last uop is not a control transfer).
    #[default]
    Decode,
    /// `jmp`: the sealed direct-successor link.
    Jmp {
        /// Target pc (the successor block's head).
        next: u32,
    },
    /// `br`: both successors sealed (fall-through is `pc + len`).
    Br {
        /// Branch condition.
        op: CmpOp,
        /// Left operand register.
        a: MReg,
        /// Right operand register.
        b: MReg,
        /// Taken-path target pc.
        taken: u32,
    },
    /// `ret`: pooled frame pop, return value from `src`.
    Ret {
        /// Return-value register, if any.
        src: Option<MReg>,
    },
    /// `aregion_begin`: inline region entry (checkpoint + governor).
    RegionBegin {
        /// Static region id.
        region: u32,
        /// Abort/alternate pc.
        alt: u32,
    },
    /// `aregion_end`: inline region commit.
    RegionEnd {
        /// Static region id.
        region: u32,
    },
    /// `aregion_abort`: inline rollback to the region's alternate pc.
    Abort {
        /// Assert id (`u32::MAX` flags an SLE lock-check abort).
        assert_id: u32,
    },
}

/// Precomputed metadata for the superblock starting at one pc.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SbInfo {
    /// Number of uops in the block, terminator included. `0` marks a
    /// `Marker` uop, which is dispatched outside any block.
    pub len: u32,
    /// The block's terminator, decoded at seal time (shared by every
    /// interior pc chaining to it).
    pub term: SbTerm,
    /// Per-class retired-uop tallies for the whole block, dense in
    /// [`UOP_CLASSES`] order — the batch delta applied at block entry.
    pub classes: [u32; UOP_CLASSES.len()],
    /// The seal-site identity of the uop *at this pc* for the way predictor
    /// (DESIGN §16): a dense per-method index over the pcs that access data
    /// memory (loads, stores, lock/len/class reads, polls — exactly
    /// [`Uop::is_memory`]; allocations are excluded), assigned in pc order by a
    /// forward post-pass; [`crate::cache::NO_SITE`] for every other pc.
    /// `CodeCache::install` rebases these by a cache-global site counter so
    /// each installed method's sites own disjoint predictor slots. Unlike
    /// the rest of `SbInfo` this describes one uop, not the block's suffix.
    pub mem_site: u32,
}

/// True for uops that end a superblock: control transfers, call linkage,
/// and region primitives (whose handlers consult or mutate machine-global
/// state mid-stream), plus `Unreachable` (which must not be pre-retired).
fn is_terminator(u: &Uop) -> bool {
    matches!(
        u,
        Uop::Jmp { .. }
            | Uop::Br { .. }
            | Uop::JmpInd { .. }
            | Uop::Call { .. }
            | Uop::CallVirt { .. }
            | Uop::Ret { .. }
            | Uop::RegionBegin { .. }
            | Uop::RegionEnd { .. }
            | Uop::Abort { .. }
            | Uop::Unreachable { .. }
    )
}

/// Decodes a block's last uop into its sealed [`SbTerm`]. Uops with heap
/// payload (calls, `jmp_ind`) and non-terminators sealed early by a marker
/// or end-of-stream stay [`SbTerm::Decode`].
fn decode_term(u: &Uop) -> SbTerm {
    match *u {
        Uop::Jmp { target } => SbTerm::Jmp {
            next: target as u32,
        },
        Uop::Br { op, a, b, target } => SbTerm::Br {
            op,
            a,
            b,
            taken: target as u32,
        },
        Uop::Ret { src } => SbTerm::Ret { src },
        Uop::RegionBegin { region, alt } => SbTerm::RegionBegin {
            region,
            alt: alt as u32,
        },
        Uop::RegionEnd { region } => SbTerm::RegionEnd { region },
        Uop::Abort { assert_id } => SbTerm::Abort { assert_id },
        _ => SbTerm::Decode,
    }
}

/// Builds the per-pc superblock suffix table for a uop stream. One backward
/// pass: a terminator (or end-of-stream, or a following marker) seeds a
/// block of length 1; every interior pc extends its successor's block.
pub fn build_blocks(uops: &[Uop]) -> Vec<SbInfo> {
    let mut blocks: Vec<SbInfo> = Vec::with_capacity(uops.len());
    for (rev, u) in uops.iter().rev().enumerate() {
        let pc = uops.len() - 1 - rev;
        let mut info = if let Uop::Marker { .. } = u {
            // Dispatched outside any block; `len: 0` is the sentinel.
            blocks.push(SbInfo {
                len: 0,
                term: SbTerm::Decode,
                classes: [0; UOP_CLASSES.len()],
                mem_site: NO_SITE,
            });
            continue;
        } else if is_terminator(u)
            || pc + 1 >= uops.len()
            || blocks.last().expect("suffix").len == 0
        {
            // The block is this uop alone: it is a terminator, the stream
            // ends here, or the next uop is a marker (which may not batch).
            SbInfo {
                len: 1,
                term: decode_term(u),
                classes: [0; UOP_CLASSES.len()],
                mem_site: NO_SITE,
            }
        } else {
            // Interior uop: prepend to the successor block (the sealed
            // terminator link is shared by every pc chaining to it).
            let suffix = &blocks[blocks.len() - 1];
            SbInfo {
                len: suffix.len + 1,
                term: suffix.term,
                classes: suffix.classes,
                mem_site: NO_SITE,
            }
        };
        info.classes[u.class() as usize] += 1;
        blocks.push(info);
    }
    blocks.reverse();
    // Seal-site assignment (a forward pass — the suffix scan above runs
    // backward, but sites must be dense in pc order so `install`'s rebase
    // keeps them stable under suffix reuse): every memory-accessing pc gets
    // the next per-method predictor slot.
    let mut site = 0u32;
    for (b, u) in blocks.iter_mut().zip(uops) {
        if u.is_memory() {
            b.mem_site = site;
            site += 1;
        }
    }
    blocks
}

/// Number of seal sites [`build_blocks`] assigned: the count of
/// memory-accessing pcs (every `mem_site` is in `0..mem_sites(blocks)` or
/// [`NO_SITE`]).
pub fn mem_sites(blocks: &[SbInfo]) -> u32 {
    blocks.iter().filter(|b| b.mem_site != NO_SITE).count() as u32
}

/// The destination register a uop writes in its own frame, if any. `Ret`
/// writes the *caller's* frame, never its own, so it reports `None`.
fn dst_reg(u: &Uop) -> Option<MReg> {
    match *u {
        Uop::Const { dst, .. }
        | Uop::ConstNull { dst }
        | Uop::Mov { dst, .. }
        | Uop::Alu { dst, .. }
        | Uop::CmpSet { dst, .. }
        | Uop::InstOf { dst, .. }
        | Uop::LoadField { dst, .. }
        | Uop::LoadElem { dst, .. }
        | Uop::LoadLen { dst, .. }
        | Uop::LoadLock { dst, .. }
        | Uop::LoadClass { dst, .. }
        | Uop::AllocObj { dst, .. }
        | Uop::AllocArr { dst, .. } => Some(dst),
        Uop::Intrin { dst, .. } | Uop::Call { dst, .. } | Uop::CallVirt { dst, .. } => dst,
        _ => None,
    }
}

/// The sorted set of registers writable inside the atomic region entered at
/// `begin` (a `RegionBegin` pc): every dst register of a uop reachable from
/// the region body without crossing a region-resolving uop.
///
/// This is what makes the sparse register checkpoint sound: regions contain
/// no calls, so only explicit dst writes can change the frame's registers
/// between `aregion_begin` and the abort point — an abort that restores
/// exactly this set restores a file bit-identical to a full-copy rollback.
fn region_write_set(uops: &[Uop], begin: usize) -> Vec<u32> {
    let mut visited = vec![false; uops.len()];
    let mut stack = vec![begin + 1];
    let mut writes: Vec<u32> = Vec::new();
    while let Some(pc) = stack.pop() {
        if pc >= uops.len() || visited[pc] {
            continue;
        }
        visited[pc] = true;
        let u = &uops[pc];
        if let Some(d) = dst_reg(u) {
            writes.push(d.0);
        }
        match *u {
            // The region is resolved (or the code is malformed and the
            // machine faults before any further frame writes): stop.
            Uop::RegionEnd { .. }
            | Uop::Abort { .. }
            | Uop::Ret { .. }
            | Uop::RegionBegin { .. }
            | Uop::Unreachable { .. }
            | Uop::Call { .. }
            | Uop::CallVirt { .. } => {}
            Uop::Jmp { target } => stack.push(target),
            Uop::Br { target, .. } => {
                stack.push(pc + 1);
                stack.push(target);
            }
            Uop::JmpInd {
                ref table, default, ..
            } => {
                stack.extend(table.iter().copied());
                stack.push(default);
            }
            _ => stack.push(pc + 1),
        }
    }
    writes.sort_unstable();
    writes.dedup();
    writes
}

/// Builds the per-region write-set table for a uop stream, indexed by the
/// dense region id: the registers the machine must checkpoint at each
/// region entry. Built at `CodeCache` install time alongside the
/// superblock index.
pub fn build_region_writes(uops: &[Uop]) -> Vec<Box<[u32]>> {
    let mut out: Vec<Box<[u32]>> = Vec::new();
    for (pc, u) in uops.iter().enumerate() {
        if let Uop::RegionBegin { region, .. } = *u {
            let r = region as usize;
            if out.len() <= r {
                out.resize_with(r + 1, Box::default);
            }
            out[r] = region_write_set(uops, pc).into_boxed_slice();
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::bytecode::{BinOp, CmpOp};

    fn konst(r: u32) -> Uop {
        Uop::Const {
            dst: MReg(r),
            imm: 1,
        }
    }

    #[test]
    fn straight_line_run_forms_one_block_per_suffix() {
        let uops = vec![
            konst(0),
            konst(1),
            Uop::Alu {
                op: BinOp::Add,
                dst: MReg(0),
                a: MReg(0),
                b: MReg(1),
            },
            Uop::Ret { src: Some(MReg(0)) },
        ];
        let b = build_blocks(&uops);
        assert_eq!(b.iter().map(|s| s.len).collect::<Vec<_>>(), [4, 3, 2, 1]);
        // Whole-stream block: 3 alu-class uops + 1 call-class ret.
        assert_eq!(b[0].classes[crate::uop::UopClass::Alu as usize], 3);
        assert_eq!(b[0].classes[crate::uop::UopClass::Call as usize], 1);
    }

    #[test]
    fn terminators_and_markers_split_blocks() {
        let uops = vec![
            konst(0),
            Uop::Br {
                op: CmpOp::Ge,
                a: MReg(0),
                b: MReg(0),
                target: 0,
            },
            konst(1),
            Uop::Marker { id: 7 },
            konst(2),
            Uop::Ret { src: None },
        ];
        let b = build_blocks(&uops);
        // const+br | br | const (marker stops it) | marker | const+ret | ret
        assert_eq!(
            b.iter().map(|s| s.len).collect::<Vec<_>>(),
            [2, 1, 1, 0, 2, 1]
        );
    }

    #[test]
    fn seal_sites_are_dense_in_pc_order_over_memory_uops() {
        let uops = vec![
            konst(0),
            Uop::LoadField {
                dst: MReg(1),
                obj: MReg(0),
                field: 0,
            },
            Uop::Poll,
            Uop::AllocObj {
                dst: MReg(2),
                class: hasp_vm::bytecode::ClassId(0),
            },
            Uop::StoreField {
                obj: MReg(0),
                field: 1,
                src: MReg(1),
            },
            Uop::Marker { id: 1 },
            Uop::LoadLen {
                dst: MReg(3),
                arr: MReg(2),
            },
            Uop::Ret { src: None },
        ];
        let b = build_blocks(&uops);
        // Memory pcs (load, poll, store, len) get sites 0..4 in pc order;
        // ALU, alloc (header write carries no sealed identity), marker, and
        // ret pcs carry the NO_SITE sentinel.
        assert_eq!(
            b.iter().map(|s| s.mem_site).collect::<Vec<_>>(),
            [NO_SITE, 0, 1, NO_SITE, 2, NO_SITE, 3, NO_SITE]
        );
        assert_eq!(mem_sites(&b), 4);
        // Site identity is per-pc, not per-suffix: interior and head views
        // of the same pc agree by construction (one table entry per pc).
        assert_eq!(mem_sites(&build_blocks(&[konst(0)])), 0);
    }

    #[test]
    fn region_write_set_covers_reachable_dsts_only() {
        // 0: const r9        (outside the region — must not be collected)
        // 1: aregion_begin alt=8
        // 2: const r0
        // 3: br -> 6
        // 4: const r1        (fallthrough arm)
        // 5: jmp -> 7
        // 6: const r2        (taken arm)
        // 7: aregion_end
        // 8: const r3        (after the region — unreachable from inside)
        // 9: ret
        let uops = vec![
            konst(9),
            Uop::RegionBegin { region: 0, alt: 8 },
            konst(0),
            Uop::Br {
                op: CmpOp::Ge,
                a: MReg(0),
                b: MReg(0),
                target: 6,
            },
            konst(1),
            Uop::Jmp { target: 7 },
            konst(2),
            Uop::RegionEnd { region: 0 },
            konst(3),
            Uop::Ret { src: None },
        ];
        let writes = build_region_writes(&uops);
        assert_eq!(writes.len(), 1, "one region");
        // Both branch arms are in the set; pre-region and post-commit
        // writes are not.
        assert_eq!(writes[0].as_ref(), &[0, 1, 2]);
    }

    #[test]
    fn terminators_are_sealed_into_links() {
        let uops = vec![
            konst(0),
            Uop::Br {
                op: CmpOp::Ge,
                a: MReg(0),
                b: MReg(1),
                target: 5,
            },
            Uop::Jmp { target: 0 },
            Uop::RegionBegin { region: 3, alt: 9 },
            Uop::RegionEnd { region: 3 },
            Uop::Abort { assert_id: 7 },
            konst(1),
            Uop::Marker { id: 1 },
            Uop::Call {
                dst: None,
                target: hasp_vm::bytecode::MethodId(0),
                args: Box::default(),
            },
            Uop::Ret { src: Some(MReg(2)) },
        ];
        let b = build_blocks(&uops);
        // Interior pcs share the sealed terminator with the block head.
        assert_eq!(
            b[0].term,
            SbTerm::Br {
                op: CmpOp::Ge,
                a: MReg(0),
                b: MReg(1),
                taken: 5
            }
        );
        assert_eq!(b[1].term, b[0].term);
        assert_eq!(b[2].term, SbTerm::Jmp { next: 0 });
        assert_eq!(b[3].term, SbTerm::RegionBegin { region: 3, alt: 9 });
        assert_eq!(b[4].term, SbTerm::RegionEnd { region: 3 });
        assert_eq!(b[5].term, SbTerm::Abort { assert_id: 7 });
        // Sealed early by the marker: a non-terminator tail stays Decode.
        assert_eq!(b[6].term, SbTerm::Decode);
        assert_eq!(b[6].len, 1);
        // Calls keep their heap payload in the uop stream.
        assert_eq!(b[8].term, SbTerm::Decode);
        assert_eq!(b[9].term, SbTerm::Ret { src: Some(MReg(2)) });
    }

    #[test]
    fn empty_region_write_set_is_empty() {
        // aregion_begin immediately followed by aregion_end: nothing is
        // writable inside, so the checkpoint must be empty (not missing).
        let uops = vec![
            Uop::RegionBegin { region: 0, alt: 3 },
            Uop::RegionEnd { region: 0 },
            Uop::Ret { src: None },
            konst(0),
            Uop::Ret { src: None },
        ];
        let writes = build_region_writes(&uops);
        assert_eq!(writes.len(), 1);
        assert_eq!(writes[0].as_ref(), &[] as &[u32]);
    }

    #[test]
    fn alt_path_superset_is_not_collected() {
        // The alternate (non-speculative) path writes a superset of the
        // region body's registers; only the in-region writes belong to the
        // checkpoint — the alt path runs with no checkpoint armed.
        // 0: aregion_begin alt=3
        // 1: const r0
        // 2: aregion_end ; 5: ret
        // 3: const r0, 4: const r1  (alt path: superset {r0, r1})
        let uops = vec![
            Uop::RegionBegin { region: 0, alt: 3 },
            konst(0),
            Uop::RegionEnd { region: 0 },
            konst(0),
            konst(1),
            Uop::Ret { src: None },
        ];
        let writes = build_region_writes(&uops);
        assert_eq!(
            writes[0].as_ref(),
            &[0],
            "alt-path writes must not inflate the sparse checkpoint"
        );
    }

    #[test]
    fn back_to_back_regions_get_independent_write_sets() {
        // Two regions where the second begin is the uop right after the
        // first's end — each write set covers exactly its own body, and a
        // shared begin pc (the DFS stop at RegionBegin) does not leak the
        // successor region's writes into the predecessor's set.
        // 0: aregion_begin alt=6
        // 1: const r0
        // 2: aregion_end
        // 3: aregion_begin alt=7
        // 4: const r1
        // 5: aregion_end ; 8: ret
        let uops = vec![
            Uop::RegionBegin { region: 0, alt: 6 },
            konst(0),
            Uop::RegionEnd { region: 0 },
            Uop::RegionBegin { region: 1, alt: 7 },
            konst(1),
            Uop::RegionEnd { region: 1 },
            konst(2),
            konst(3),
            Uop::Ret { src: None },
        ];
        let writes = build_region_writes(&uops);
        assert_eq!(writes.len(), 2, "both begins get a set");
        assert_eq!(writes[0].as_ref(), &[0], "first region: only r0");
        assert_eq!(writes[1].as_ref(), &[1], "second region: only r1");
    }

    #[test]
    fn suffix_deltas_decompose_exactly() {
        // blocks[pc].classes == uop(pc).class + blocks[pc+1].classes for
        // interior pcs — the identity the mid-block unapply path relies on.
        let uops = vec![
            konst(0),
            Uop::CheckNull { v: MReg(0) },
            Uop::LoadField {
                dst: MReg(1),
                obj: MReg(0),
                field: 0,
            },
            konst(2),
            Uop::Ret { src: None },
        ];
        let b = build_blocks(&uops);
        for pc in 0..uops.len() - 1 {
            if b[pc].len <= 1 {
                continue;
            }
            let mut rebuilt = b[pc + 1].classes;
            rebuilt[uops[pc].class() as usize] += 1;
            assert_eq!(b[pc].classes, rebuilt, "pc {pc}");
            assert_eq!(b[pc].len, b[pc + 1].len + 1, "pc {pc}");
        }
    }
}
