//! The machine-level micro-operation ISA and compiled-code containers.
//!
//! The ISA is an abstract register machine extended with the paper's three
//! atomicity primitives (`aregion_begin <alt>`, `aregion_end`,
//! `aregion_abort`). Registers are per-frame and unbounded — a substitution
//! for a real register allocator documented in `DESIGN.md`: every compiler
//! configuration is lowered identically, so relative uop counts (the paper's
//! efficiency metric) are preserved.

use hasp_vm::bytecode::{BinOp, ClassId, CmpOp, Intrinsic, MethodId, SlotId};

/// A machine register within a frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MReg(pub u32);

/// A resolved code offset within a method's uop stream.
pub type CodePos = usize;

/// One micro-operation.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)] // operand fields (dst/src/obj/...) are self-describing
pub enum Uop {
    /// `dst = imm`
    Const { dst: MReg, imm: i64 },
    /// `dst = null`
    ConstNull { dst: MReg },
    /// `dst = src`
    Mov { dst: MReg, src: MReg },
    /// ALU operation (Div/Rem must be guarded by `CheckDiv`).
    Alu {
        op: BinOp,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// `dst = (a op b) ? 1 : 0`
    CmpSet {
        op: CmpOp,
        dst: MReg,
        a: MReg,
        b: MReg,
    },
    /// Unconditional jump.
    Jmp { target: CodePos },
    /// Conditional branch: taken to `target` when `a op b` holds.
    Br {
        op: CmpOp,
        a: MReg,
        b: MReg,
        target: CodePos,
    },
    /// Indirect table dispatch (Java `tableswitch`).
    JmpInd {
        sel: MReg,
        table: Box<[CodePos]>,
        default: CodePos,
    },
    /// Field load (null-checked separately).
    LoadField { dst: MReg, obj: MReg, field: u16 },
    /// Field store.
    StoreField { obj: MReg, field: u16, src: MReg },
    /// Array element load (checked separately).
    LoadElem { dst: MReg, arr: MReg, idx: MReg },
    /// Array element store.
    StoreElem { arr: MReg, idx: MReg, src: MReg },
    /// Array length load.
    LoadLen { dst: MReg, arr: MReg },
    /// Lock-word load (packed owner/count).
    LoadLock { dst: MReg, obj: MReg },
    /// Lock-word store.
    StoreLock { obj: MReg, src: MReg },
    /// Dynamic class-id load.
    LoadClass { dst: MReg, obj: MReg },
    /// Object allocation.
    AllocObj { dst: MReg, class: ClassId },
    /// Array allocation.
    AllocArr { dst: MReg, len: MReg },
    /// Trap (or in-region abort) if `v` is null.
    CheckNull { v: MReg },
    /// Trap (or in-region abort) unless `0 <= idx < len`.
    CheckBounds { len: MReg, idx: MReg },
    /// Trap (or in-region abort) if `v == 0`.
    CheckDiv { v: MReg },
    /// Trap (or in-region abort) unless `obj` is null or instance of `class`.
    CheckCast { obj: MReg, class: ClassId },
    /// `dst = (obj instanceof class) ? 1 : 0`.
    InstOf {
        dst: MReg,
        obj: MReg,
        class: ClassId,
    },
    /// Direct call.
    Call {
        dst: Option<MReg>,
        target: MethodId,
        args: Box<[MReg]>,
    },
    /// Virtual call through the receiver's vtable.
    CallVirt {
        dst: Option<MReg>,
        slot: SlotId,
        recv: MReg,
        args: Box<[MReg]>,
    },
    /// Return from the frame.
    Ret { src: Option<MReg> },
    /// `aregion_begin <alt>`: checkpoint and start speculating; on abort,
    /// control resumes at `alt`.
    RegionBegin { region: u32, alt: CodePos },
    /// `aregion_end`: commit the region atomically.
    RegionEnd { region: u32 },
    /// `aregion_abort`: unconditional rollback (target of assert branches).
    Abort { assert_id: u32 },
    /// GC safepoint poll (a load of the thread-local yield flag).
    Poll,
    /// Host intrinsic.
    Intrin {
        kind: Intrinsic,
        dst: Option<MReg>,
        args: Box<[MReg]>,
    },
    /// Simulation marker (§5 methodology); architecturally inert.
    Marker { id: u32 },
    /// Executing this uop is a VM bug (e.g. monitor contention path in the
    /// single-mutator simulation).
    Unreachable { why: &'static str },
}

/// Coarse uop classification for dense per-class retirement tallies.
///
/// The simulator bumps one of these counters on every retired uop, so the
/// representation must be an index into a flat array — never a hash key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[repr(usize)]
pub enum UopClass {
    /// Constants, moves, ALU and compare-set operations.
    Alu,
    /// Conditional, unconditional, and indirect control transfer.
    Branch,
    /// Data-memory loads and stores (including lock words and polls).
    Memory,
    /// Object and array allocation.
    Alloc,
    /// Safety checks (null/bounds/div/cast) and `instanceof`.
    Check,
    /// Call and return linkage.
    Call,
    /// Atomic-region primitives (`aregion_begin/end/abort`).
    Region,
    /// Host intrinsics, markers, and everything else.
    Other,
}

/// All uop classes, in index order (for iteration and display).
pub const UOP_CLASSES: [UopClass; 8] = [
    UopClass::Alu,
    UopClass::Branch,
    UopClass::Memory,
    UopClass::Alloc,
    UopClass::Check,
    UopClass::Call,
    UopClass::Region,
    UopClass::Other,
];

impl UopClass {
    /// Report label (instruction-mix tables).
    pub fn name(self) -> &'static str {
        match self {
            UopClass::Alu => "alu",
            UopClass::Branch => "branch",
            UopClass::Memory => "memory",
            UopClass::Alloc => "alloc",
            UopClass::Check => "check",
            UopClass::Call => "call",
            UopClass::Region => "region",
            UopClass::Other => "other",
        }
    }
}

impl Uop {
    /// The dense class index used for retirement tallies.
    pub fn class(&self) -> UopClass {
        match self {
            Uop::Const { .. }
            | Uop::ConstNull { .. }
            | Uop::Mov { .. }
            | Uop::Alu { .. }
            | Uop::CmpSet { .. } => UopClass::Alu,
            Uop::Jmp { .. } | Uop::Br { .. } | Uop::JmpInd { .. } => UopClass::Branch,
            Uop::LoadField { .. }
            | Uop::StoreField { .. }
            | Uop::LoadElem { .. }
            | Uop::StoreElem { .. }
            | Uop::LoadLen { .. }
            | Uop::LoadLock { .. }
            | Uop::StoreLock { .. }
            | Uop::LoadClass { .. }
            | Uop::Poll => UopClass::Memory,
            Uop::AllocObj { .. } | Uop::AllocArr { .. } => UopClass::Alloc,
            Uop::CheckNull { .. }
            | Uop::CheckBounds { .. }
            | Uop::CheckDiv { .. }
            | Uop::CheckCast { .. }
            | Uop::InstOf { .. } => UopClass::Check,
            Uop::Call { .. } | Uop::CallVirt { .. } | Uop::Ret { .. } => UopClass::Call,
            Uop::RegionBegin { .. } | Uop::RegionEnd { .. } | Uop::Abort { .. } => UopClass::Region,
            Uop::Intrin { .. } | Uop::Marker { .. } | Uop::Unreachable { .. } => UopClass::Other,
        }
    }

    /// True for uops that access data memory: exactly the interior arms
    /// that call the cache model through a seal site (an allocation's
    /// header write goes through `NO_SITE`).
    pub fn is_memory(&self) -> bool {
        self.class() == UopClass::Memory
    }
}

/// A method's compiled code.
#[derive(Debug, Clone)]
pub struct CompiledCode {
    /// Method name (diagnostics).
    pub name: String,
    /// The uop stream; execution starts at offset 0.
    pub uops: Vec<Uop>,
    /// Number of machine registers the frame needs.
    pub regs: u32,
    /// Per-region formation boundary, indexed by the dense per-method
    /// region id: the original (pre-replication) block id that seeded the
    /// region, which doubles as its abort target. Region formation is
    /// deterministic given the same program and profile, so this id is the
    /// region's stable identity across recompiles — it is what a
    /// [`ReformRequest`](crate::config::ReformRequest) names and what the
    /// harness excludes on re-formation. Empty for hand-assembled streams
    /// with no formation metadata (the machine then reports `u32::MAX`).
    pub region_boundaries: Vec<u32>,
    /// Per-pc decoded superblock index (`blocks[pc]` describes the block
    /// starting at `pc`). Built by [`CompiledCode::seal`] when the code is
    /// installed; empty until then.
    pub blocks: Vec<crate::superblock::SbInfo>,
    /// Per-region register write sets, indexed by the dense per-method
    /// region id (sorted dst registers reachable inside the region) — the
    /// sparse checkpoint the machine captures at region entry instead of
    /// the whole frame. A plain vector so the hot region-entry path is an
    /// index, not a hash lookup. Built by [`CompiledCode::seal`]; empty
    /// until then.
    pub region_writes: Vec<Box<[u32]>>,
}

impl CompiledCode {
    /// (Re)builds the decoded superblock index and the per-region register
    /// write sets from the uop stream. Called by [`CodeCache::install`], so
    /// every executable method carries consistent metadata — including
    /// hand-assembled test streams.
    pub fn seal(&mut self) {
        self.blocks = crate::superblock::build_blocks(&self.uops);
        self.region_writes = crate::superblock::build_region_writes(&self.uops);
    }
}

/// The code cache: compiled code for every method. Method ids are small and
/// dense (assigned sequentially by the front end), so the cache is a
/// direct-indexed table — the fetch on every call's frame push is one bounds
/// check and a load, not a hash.
#[derive(Debug, Clone, Default)]
pub struct CodeCache {
    methods: Vec<Option<CompiledCode>>,
    /// Next free way-predictor seal site (DESIGN §16). Monotonic across
    /// installs — reinstalling a method hands its sites *fresh* slots
    /// instead of recycling the old base, so a machine built against an
    /// earlier install generation can never alias a re-formed method's
    /// accesses onto stale predictor entries (harmless for correctness —
    /// validation catches stale entries — but it would pollute hit rates).
    next_site: u32,
}

impl CodeCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs compiled code for a method, sealing its superblock index
    /// and rebasing its per-method seal sites into the cache-global
    /// predictor slot space.
    pub fn install(&mut self, m: MethodId, mut code: CompiledCode) {
        code.seal();
        let base = self.next_site;
        let mut sites = 0u32;
        for b in &mut code.blocks {
            if b.mem_site != crate::cache::NO_SITE {
                b.mem_site += base;
                sites += 1;
            }
        }
        self.next_site = base
            .checked_add(sites)
            .expect("seal-site space exhausted (u32)");
        let idx = m.0 as usize;
        if idx >= self.methods.len() {
            self.methods.resize_with(idx + 1, || None);
        }
        self.methods[idx] = Some(code);
    }

    /// Total seal sites handed out across every install (the upper bound of
    /// the global predictor slot space; sizing hint for predictor tables).
    pub fn seal_sites(&self) -> u32 {
        self.next_site
    }

    /// Fetches a method's code.
    pub fn get(&self, m: MethodId) -> Option<&CompiledCode> {
        self.methods.get(m.0 as usize)?.as_ref()
    }

    /// Total static uop count across all methods.
    pub fn static_uops(&self) -> usize {
        self.methods.iter().flatten().map(|c| c.uops.len()).sum()
    }

    /// Iterates over all installed methods and their code.
    pub fn iter(&self) -> impl Iterator<Item = (MethodId, &CompiledCode)> {
        self.methods
            .iter()
            .enumerate()
            .filter_map(|(i, c)| c.as_ref().map(|c| (MethodId(i as u32), c)))
    }

    /// Number of compiled methods.
    pub fn len(&self) -> usize {
        self.methods.iter().flatten().count()
    }

    /// True if no methods are installed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        assert!(Uop::LoadField {
            dst: MReg(0),
            obj: MReg(1),
            field: 0
        }
        .is_memory());
        assert!(Uop::Poll.is_memory());
        assert!(!Uop::Const {
            dst: MReg(0),
            imm: 3
        }
        .is_memory());
    }

    #[test]
    fn code_cache_roundtrip() {
        let mut cc = CodeCache::new();
        assert!(cc.is_empty());
        cc.install(
            MethodId(3),
            CompiledCode {
                name: "m".into(),
                uops: vec![Uop::Ret { src: None }],
                regs: 1,
                region_boundaries: Vec::new(),
                blocks: Vec::new(),
                region_writes: Default::default(),
            },
        );
        assert_eq!(cc.len(), 1);
        assert_eq!(cc.static_uops(), 1);
        let sealed = cc.get(MethodId(3)).unwrap();
        assert_eq!(sealed.blocks.len(), 1, "install seals the block index");
        assert_eq!(sealed.blocks[0].len, 1);
        assert!(cc.get(MethodId(3)).is_some());
        assert!(cc.get(MethodId(4)).is_none());
    }

    #[test]
    fn install_rebases_seal_sites_across_methods() {
        let mem_method = |name: &str| CompiledCode {
            name: name.into(),
            uops: vec![
                Uop::LoadField {
                    dst: MReg(0),
                    obj: MReg(0),
                    field: 0,
                },
                Uop::LoadField {
                    dst: MReg(0),
                    obj: MReg(0),
                    field: 1,
                },
                Uop::Ret { src: Some(MReg(0)) },
            ],
            regs: 1,
            region_boundaries: Vec::new(),
            blocks: Vec::new(),
            region_writes: Default::default(),
        };
        let mut cc = CodeCache::new();
        cc.install(MethodId(0), mem_method("a"));
        cc.install(MethodId(1), mem_method("b"));
        let a = cc.get(MethodId(0)).unwrap();
        let b = cc.get(MethodId(1)).unwrap();
        let sites = |c: &CompiledCode| c.blocks.iter().map(|blk| blk.mem_site).collect::<Vec<_>>();
        use crate::cache::NO_SITE;
        assert_eq!(sites(a), vec![0, 1, NO_SITE]);
        assert_eq!(
            sites(b),
            vec![2, 3, NO_SITE],
            "second install must land in fresh global predictor slots"
        );
        assert_eq!(cc.seal_sites(), 4);
        // Reinstalling never recycles slots.
        cc.install(MethodId(0), mem_method("a2"));
        assert_eq!(sites(cc.get(MethodId(0)).unwrap()), vec![4, 5, NO_SITE]);
        assert_eq!(cc.seal_sites(), 6);
    }
}
