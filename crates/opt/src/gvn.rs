//! Dominator-scoped global value numbering with redundancy elimination.
//!
//! This is the paper's workhorse: a *non-speculative* redundancy-elimination
//! pass that, once cold edges have been converted into asserts, performs
//! *speculative* optimization for free (§2, §4). It removes:
//!
//! * redundant pure expressions (`Bin`, `Cmp`, `ArrayLen`, `InstanceOf`,
//!   `LoadClass`, constants),
//! * redundant safety checks (a dominating equivalent check subsumes a later
//!   one — null checks, bounds checks, div checks, cast checks),
//! * redundant *asserts* ("redundant asserts are eliminated by existing
//!   redundancy elimination passes such as global value numbering", §4),
//! * redundant memory loads, with store-to-load forwarding, using a
//!   memory-versioning discipline: every field (and the array-element space)
//!   carries a version; stores, calls and monitor operations advance it, and
//!   versions merge at control-flow joins — agreeing predecessors keep their
//!   version, disagreeing ones (or back edges) get a fresh one. A load is
//!   redundant only under an equal version, so availability flows through
//!   store-free warm diamonds but dies at joins whose other arm clobbers —
//!   which is exactly why converting cold edges into asserts widens the
//!   optimization scope (Figure 3).
//!
//! Value equivalences are global SSA facts collected in a union-find-style
//! leader table; expression availability is dominator-tree scoped.
//!
//! Every per-block and per-value table is a vector indexed by id; only the
//! expression table, whose keys are truly sparse, hashes (FxHash).

use hasp_ir::{AssertKind, BlockId, DenseLists, DomTree, Func, Op, Term, VReg};
use hasp_vm::bytecode::{BinOp, CmpOp};
use hasp_vm::fxhash::FxHashMap;

/// Canonical expression key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Const(i64),
    ConstNull,
    Bin(BinOp, VReg, VReg),
    Cmp(CmpOp, VReg, VReg),
    ArrayLen(VReg),
    InstanceOf(VReg, u32),
    LoadClass(VReg),
    NullCheck(VReg),
    DivCheck(VReg),
    BoundsCheck(VReg, VReg),
    CastCheck(VReg, u32),
    LoadField(VReg, u16, u64),
    LoadElem(VReg, VReg, u64),
    AssertCmp(CmpOp, VReg, VReg),
    AssertNull(VReg),
    AssertClassNe(VReg, u32),
    AssertLockHeld(VReg),
    AssertIntNe(VReg, i64),
    SleCheck(VReg),
}

/// Statistics from one GVN run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GvnStats {
    /// Pure expressions replaced by earlier values.
    pub exprs: usize,
    /// Safety checks removed as subsumed.
    pub checks: usize,
    /// Loads removed (redundant or store-forwarded).
    pub loads: usize,
    /// Asserts removed as redundant.
    pub asserts: usize,
    /// Copies propagated away.
    pub copies: usize,
}

impl GvnStats {
    /// Total eliminated instructions.
    pub fn total(&self) -> usize {
        self.exprs + self.checks + self.loads + self.asserts + self.copies
    }
}

/// Per-program-point memory version state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct MemState {
    /// Versions of fields that diverged from `default`, sorted by field.
    fields: Vec<(u16, u64)>,
    /// Version of every field not in `fields`.
    default: u64,
    /// Version of the array-element space.
    elems: u64,
}

/// The state an unvisited predecessor (a back edge) contributes: unknown,
/// which the merge turns into fresh versions.
static UNKNOWN: MemState = MemState {
    fields: Vec::new(),
    default: u64::MAX,
    elems: u64::MAX,
};

impl MemState {
    fn field(&self, f: u16) -> u64 {
        match self.fields.binary_search_by_key(&f, |&(k, _)| k) {
            Ok(i) => self.fields[i].1,
            Err(_) => self.default,
        }
    }

    fn set_field(&mut self, f: u16, version: u64) {
        match self.fields.binary_search_by_key(&f, |&(k, _)| k) {
            Ok(i) => self.fields[i].1 = version,
            Err(i) => self.fields.insert(i, (f, version)),
        }
    }

    /// Joins predecessor states: agreeing components keep their version,
    /// disagreeing ones take a fresh tick.
    fn merge<'a>(states: impl Iterator<Item = &'a MemState> + Clone, tick: &mut u64) -> MemState {
        let first = states.clone().next().expect("at least one state");
        let mut out = MemState {
            fields: Vec::new(),
            default: first.default,
            elems: first.elems,
        };
        if states.clone().any(|s| s.default != out.default) {
            *tick += 1;
            out.default = *tick;
        }
        if states.clone().any(|s| s.elems != first.elems) {
            *tick += 1;
            out.elems = *tick;
        }
        // Fields that diverge in any state, in field order.
        let mut keys: Vec<u16> = states
            .clone()
            .flat_map(|s| s.fields.iter().map(|&(k, _)| k))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        for k in keys {
            let v0 = first.field(k);
            if states.clone().all(|s| s.field(k) == v0) {
                out.fields.push((k, v0));
            } else {
                *tick += 1;
                out.fields.push((k, *tick));
            }
        }
        out
    }
}

struct Gvn<'f> {
    f: &'f mut Func,
    dt: DomTree,
    /// Global SSA value equivalences, indexed by value (a value is its own
    /// leader until replaced; path-compressed on lookup).
    leader: Vec<VReg>,
    /// Scoped availability: the innermost entry of each key, with the undo
    /// log that restores shadowed entries when a dominator scope closes.
    /// Checks/asserts have no value; presence alone marks availability.
    table: FxHashMap<Key, Option<VReg>>,
    undo: Vec<(Key, Option<Option<VReg>>)>,
    /// Memory state at each visited block's exit.
    block_out: Vec<Option<MemState>>,
    /// State while processing the current block.
    mem: MemState,
    version_tick: u64,
    stats: GvnStats,
}

/// Runs GVN over `f` until the dominator walk completes. Returns statistics.
pub fn run(f: &mut Func) -> GvnStats {
    let dt = DomTree::compute(f);
    let n = f.block_count();
    // Children in reverse postorder so a join's predecessors have their
    // exit states recorded before the join is visited.
    let children = DenseLists::new(
        n,
        dt.rpo()[1..]
            .iter()
            .map(|&b| (dt.idom(b).expect("reachable").0 as usize, b)),
    );
    let mut g = Gvn {
        leader: (0..f.vreg_count()).map(VReg).collect(),
        f,
        dt,
        table: FxHashMap::default(),
        undo: Vec::new(),
        block_out: vec![None; n],
        mem: MemState::default(),
        version_tick: 0,
        stats: GvnStats::default(),
    };
    let root = g.dt.root();
    g.walk(&children, root);
    // Loop phis and any forward references pick up leaders in a final sweep.
    g.rewrite_all();
    g.stats
}

impl Gvn<'_> {
    fn resolve(&mut self, v: VReg) -> VReg {
        let Some(&first) = self.leader.get(v.0 as usize) else {
            return v;
        };
        if first == v {
            return v;
        }
        let mut root = first;
        while self.leader[root.0 as usize] != root {
            root = self.leader[root.0 as usize];
        }
        let mut cur = v;
        while cur != root {
            let next = self.leader[cur.0 as usize];
            self.leader[cur.0 as usize] = root;
            cur = next;
        }
        root
    }

    fn bump_all_versions(&mut self) {
        self.version_tick += 1;
        self.mem.default = self.version_tick;
        self.mem.fields.clear();
        self.version_tick += 1;
        self.mem.elems = self.version_tick;
    }

    fn field_ver(&mut self, field: u16) -> u64 {
        self.mem.field(field)
    }

    fn bump_field(&mut self, field: u16) {
        self.version_tick += 1;
        self.mem.set_field(field, self.version_tick);
    }

    fn bump_elems(&mut self) {
        self.version_tick += 1;
        self.mem.elems = self.version_tick;
    }

    fn lookup(&self, k: &Key) -> Option<Option<VReg>> {
        self.table.get(k).copied()
    }

    fn record(&mut self, k: Key, v: Option<VReg>) {
        let shadowed = self.table.insert(k, v);
        self.undo.push((k, shadowed));
    }

    /// Value-numbers `b` and then the blocks it dominates (`children`, in
    /// reverse postorder), inside one availability scope.
    fn walk(&mut self, children: &DenseLists<BlockId>, b: BlockId) {
        let scope = self.undo.len();
        // Memory state at block entry: the join of predecessor exit states.
        // An unvisited predecessor (a back edge) contributes "unknown", which
        // the merge turns into fresh versions.
        {
            let preds = self.dt.preds().of(b);
            self.mem = if preds.is_empty() {
                MemState::default()
            } else {
                let block_out = &self.block_out;
                let states = preds
                    .iter()
                    .map(|p| block_out[p.0 as usize].as_ref().unwrap_or(&UNKNOWN));
                MemState::merge(states, &mut self.version_tick)
            };
            // `u64::MAX` components (all-unknown joins) become fresh ticks.
            if self.mem.default == u64::MAX {
                self.version_tick += 1;
                self.mem.default = self.version_tick;
            }
            if self.mem.elems == u64::MAX {
                self.version_tick += 1;
                self.mem.elems = self.version_tick;
            }
            for (_, v) in &mut self.mem.fields {
                if *v == u64::MAX {
                    self.version_tick += 1;
                    *v = self.version_tick;
                }
            }
        }

        let mut insts = std::mem::take(&mut self.f.block_mut(b).insts);
        let mut keep = vec![true; insts.len()];
        for (inst, keep) in insts.iter_mut().zip(&mut keep) {
            // Substitute operands through the leader table.
            if !matches!(inst.op, Op::Phi(_)) {
                inst.op.for_each_arg_mut(|a| *a = self.resolve(*a));
            }
            match self.visit(&inst.op, inst.dst) {
                Verdict::Keep => {}
                Verdict::Replace(lead) => {
                    let dst = inst.dst.expect("replaced inst has a result");
                    if dst.0 as usize >= self.leader.len() {
                        let n = self.leader.len() as u32;
                        self.leader.extend((n..=dst.0).map(VReg));
                    }
                    self.leader[dst.0 as usize] = lead;
                    *keep = false;
                }
                Verdict::Delete => *keep = false,
            }
        }
        let mut keep = keep.into_iter();
        insts.retain(|_| keep.next().expect("one flag per instruction"));
        self.f.block_mut(b).insts = insts;
        // Terminator operands.
        self.resolve_term(b);

        self.block_out[b.0 as usize] = Some(self.mem.clone());

        for &c in children.get(b.0 as usize) {
            self.walk(children, c);
        }

        for (k, shadowed) in self.undo.drain(scope..).rev() {
            match shadowed {
                Some(v) => self.table.insert(k, v),
                None => self.table.remove(&k),
            };
        }
    }

    fn resolve_term(&mut self, b: BlockId) {
        let mut term = std::mem::replace(&mut self.f.block_mut(b).term, Term::Return(None));
        term.for_each_arg_mut(|a| *a = self.resolve(*a));
        self.f.block_mut(b).term = term;
    }

    fn visit(&mut self, op: &Op, dst: Option<VReg>) -> Verdict {
        match op {
            Op::Copy(v) => {
                let lead = self.resolve(*v);
                self.stats.copies += 1;
                Verdict::Replace(lead)
            }
            Op::Phi(ins) => {
                // All-same phi collapses (inputs may reference later defs in
                // loops, so resolve conservatively without mutating).
                let mut vals = ins.iter().map(|(_, v)| *v);
                if let Some(first) = vals.next() {
                    if vals.all(|v| v == first) {
                        // Only collapse if the value dominates this block —
                        // guaranteed when it came from all predecessors.
                        self.stats.copies += 1;
                        return Verdict::Replace(self.resolve(first));
                    }
                }
                Verdict::Keep
            }
            Op::Const(c) => self.pure(Key::Const(*c), dst),
            Op::ConstNull => self.pure(Key::ConstNull, dst),
            Op::Bin(binop, a, b) => {
                let (x, y) = canonical_commutative(*binop, *a, *b);
                self.pure(Key::Bin(*binop, x, y), dst)
            }
            Op::Cmp(c, a, b) => {
                let (c2, x, y) = canonical_cmp(*c, *a, *b);
                self.pure(Key::Cmp(c2, x, y), dst)
            }
            Op::ArrayLen(a) => self.pure(Key::ArrayLen(*a), dst),
            Op::InstanceOf { obj, class } => self.pure(Key::InstanceOf(*obj, class.0), dst),
            Op::LoadClass(v) => self.pure(Key::LoadClass(*v), dst),

            Op::NullCheck(v) => self.check(Key::NullCheck(*v)),
            Op::DivCheck(v) => self.check(Key::DivCheck(*v)),
            Op::BoundsCheck { len, idx } => self.check(Key::BoundsCheck(*len, *idx)),
            Op::CastCheck { obj, class } => self.check(Key::CastCheck(*obj, class.0)),

            Op::Assert { kind, .. } => {
                let key = match kind {
                    AssertKind::Cmp { op, a, b } => {
                        let (c2, x, y) = canonical_cmp(*op, *a, *b);
                        Key::AssertCmp(c2, x, y)
                    }
                    AssertKind::Null(v) => Key::AssertNull(*v),
                    AssertKind::ClassNe { obj, class } => Key::AssertClassNe(*obj, class.0),
                    AssertKind::LockHeld(v) => Key::AssertLockHeld(*v),
                    AssertKind::IntNe { sel, expected } => Key::AssertIntNe(*sel, *expected),
                };
                if self.lookup(&key).is_some() {
                    self.stats.asserts += 1;
                    Verdict::Delete
                } else {
                    self.record(key, None);
                    Verdict::Keep
                }
            }
            Op::SleCheck(v) => self.check(Key::SleCheck(*v)),

            Op::LoadField { obj, field } => {
                let ver = self.field_ver(field.0);
                let key = Key::LoadField(*obj, field.0, ver);
                match self.lookup(&key) {
                    Some(Some(lead)) => {
                        self.stats.loads += 1;
                        Verdict::Replace(lead)
                    }
                    _ => {
                        self.record(key, dst);
                        Verdict::Keep
                    }
                }
            }
            Op::LoadElem { arr, idx } => {
                let key = Key::LoadElem(*arr, *idx, self.mem.elems);
                match self.lookup(&key) {
                    Some(Some(lead)) => {
                        self.stats.loads += 1;
                        Verdict::Replace(lead)
                    }
                    _ => {
                        self.record(key, dst);
                        Verdict::Keep
                    }
                }
            }
            Op::StoreField { obj, field, val } => {
                self.bump_field(field.0);
                let ver = self.field_ver(field.0);
                // Store-to-load forwarding.
                self.record(Key::LoadField(*obj, field.0, ver), Some(*val));
                Verdict::Keep
            }
            Op::StoreElem { arr, idx, val } => {
                self.bump_elems();
                self.record(Key::LoadElem(*arr, *idx, self.mem.elems), Some(*val));
                Verdict::Keep
            }
            Op::Call { .. } | Op::CallVirtual { .. } | Op::MonitorEnter(_) | Op::MonitorExit(_) => {
                self.bump_all_versions();
                Verdict::Keep
            }
            _ => Verdict::Keep,
        }
    }

    fn pure(&mut self, key: Key, dst: Option<VReg>) -> Verdict {
        match self.lookup(&key) {
            Some(Some(lead)) => {
                self.stats.exprs += 1;
                Verdict::Replace(lead)
            }
            _ => {
                self.record(key, dst);
                Verdict::Keep
            }
        }
    }

    fn check(&mut self, key: Key) -> Verdict {
        if self.lookup(&key).is_some() {
            self.stats.checks += 1;
            Verdict::Delete
        } else {
            self.record(key, None);
            Verdict::Keep
        }
    }

    /// Final substitution sweep: phi inputs (which may reference values only
    /// resolved later in the walk) and everything else.
    fn rewrite_all(&mut self) {
        for b in self.f.block_ids() {
            let mut insts = std::mem::take(&mut self.f.block_mut(b).insts);
            for inst in &mut insts {
                inst.op.for_each_arg_mut(|a| *a = self.resolve(*a));
            }
            self.f.block_mut(b).insts = insts;
            self.resolve_term(b);
        }
    }
}

enum Verdict {
    Keep,
    Replace(VReg),
    Delete,
}

fn canonical_commutative(op: BinOp, a: VReg, b: VReg) -> (VReg, VReg) {
    match op {
        BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor if b < a => (b, a),
        _ => (a, b),
    }
}

fn canonical_cmp(op: CmpOp, a: VReg, b: VReg) -> (CmpOp, VReg, VReg) {
    if b < a {
        (op.swap(), b, a)
    } else {
        (op, a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_ir::{verify, Inst, Term};
    use hasp_vm::bytecode::{FieldId, MethodId};

    fn count_op(f: &Func, pred: impl Fn(&Op) -> bool) -> usize {
        f.block_ids()
            .iter()
            .map(|b| f.block(*b).insts.iter().filter(|i| pred(&i.op)).count())
            .sum()
    }

    #[test]
    fn removes_redundant_checks_and_loads() {
        // Two back-to-back field accesses on the same object: the second
        // null check and load are redundant (Figure 3's optimization).
        let mut f = Func::new("t", MethodId(0), 1);
        let o = VReg(0);
        let d1 = f.vreg();
        let d2 = f.vreg();
        let sum = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::effect(Op::NullCheck(o)));
        e.insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        e.insts.push(Inst::effect(Op::NullCheck(o)));
        e.insts.push(Inst::with_dst(
            d2,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        e.insts
            .push(Inst::with_dst(sum, Op::Bin(BinOp::Add, d1, d2)));
        e.term = Term::Return(Some(sum));

        let stats = run(&mut f);
        verify(&f).unwrap_or_else(|e| panic!("{e}\n{}", f.display()));
        assert_eq!(stats.checks, 1);
        assert_eq!(stats.loads, 1);
        assert_eq!(count_op(&f, |o| matches!(o, Op::NullCheck(_))), 1);
        assert_eq!(count_op(&f, |o| matches!(o, Op::LoadField { .. })), 1);
        // The Bin now adds d1 to itself.
        let bin = f.block(f.entry).insts.last().unwrap();
        assert_eq!(bin.op.args(), vec![d1, d1]);
    }

    #[test]
    fn store_kills_load_availability_but_forwards() {
        let mut f = Func::new("t", MethodId(0), 2);
        let o = VReg(0);
        let v = VReg(1);
        let d1 = f.vreg();
        let d2 = f.vreg();
        let sum = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        e.insts.push(Inst::effect(Op::StoreField {
            obj: o,
            field: FieldId(0),
            val: v,
        }));
        e.insts.push(Inst::with_dst(
            d2,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        e.insts
            .push(Inst::with_dst(sum, Op::Bin(BinOp::Add, d1, d2)));
        e.term = Term::Return(Some(sum));

        let stats = run(&mut f);
        verify(&f).unwrap();
        // d2 is forwarded from the store (value v), not from d1.
        assert_eq!(stats.loads, 1);
        let bin = f
            .block(f.entry)
            .insts
            .iter()
            .find(|i| matches!(i.op, Op::Bin(..)))
            .unwrap();
        assert_eq!(bin.op.args(), vec![d1, v]);
    }

    #[test]
    fn clobbering_merge_kills_availability() {
        // load; diamond where ONE arm stores the field; load after the join
        // — the reload must survive (the store arm changed the version).
        let mut f = Func::new("t", MethodId(0), 2);
        let (o, v) = (VReg(0), VReg(1));
        let join = f.add_block(Term::Return(None));
        let l = f.add_block(Term::Jump(join));
        let r = f.add_block(Term::Jump(join));
        f.block_mut(l).insts.push(Inst::effect(Op::StoreField {
            obj: o,
            field: FieldId(0),
            val: v,
        }));
        let d1 = f.vreg();
        f.block_mut(f.entry).insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        let z = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(z, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: d1,
            b: z,
            t: l,
            f: r,
            t_count: 1,
            f_count: 1,
        };
        let d2 = f.vreg();
        f.block_mut(join).insts.push(Inst::with_dst(
            d2,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(join).term = Term::Return(Some(d2));

        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.loads, 0, "clobbering merge must kill availability");
        assert_eq!(count_op(&f, |o| matches!(o, Op::LoadField { .. })), 2);
    }

    #[test]
    fn store_free_diamond_preserves_availability() {
        // load; store-free diamond; load — versions agree at the join, so
        // the reload is redundant (per-field memory versioning).
        let mut f = Func::new("t", MethodId(0), 1);
        let o = VReg(0);
        let join = f.add_block(Term::Return(None));
        let l = f.add_block(Term::Jump(join));
        let r = f.add_block(Term::Jump(join));
        let d1 = f.vreg();
        f.block_mut(f.entry).insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        let z = f.vreg();
        f.block_mut(f.entry)
            .insts
            .push(Inst::with_dst(z, Op::Const(0)));
        f.block_mut(f.entry).term = Term::Branch {
            op: CmpOp::Eq,
            a: d1,
            b: z,
            t: l,
            f: r,
            t_count: 1,
            f_count: 1,
        };
        let d2 = f.vreg();
        f.block_mut(join).insts.push(Inst::with_dst(
            d2,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(join).term = Term::Return(Some(d2));

        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.loads, 1, "store-free diamond must forward");
        match f.block(join).term {
            Term::Return(Some(ret)) => assert_eq!(ret, d1),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn straightline_chain_keeps_availability_across_blocks() {
        // Single-pred chain: availability flows through.
        let mut f = Func::new("t", MethodId(0), 1);
        let o = VReg(0);
        let b2 = f.add_block(Term::Return(None));
        let d1 = f.vreg();
        f.block_mut(f.entry).insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(f.entry).term = Term::Jump(b2);
        let d2 = f.vreg();
        f.block_mut(b2).insts.push(Inst::with_dst(
            d2,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(b2).term = Term::Return(Some(d2));

        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.loads, 1);
        match f.block(b2).term {
            Term::Return(Some(v)) => assert_eq!(v, d1),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn redundant_asserts_removed() {
        use hasp_ir::{RegionId, RegionInfo};
        let mut f = Func::new("t", MethodId(0), 2);
        let exit = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(exit));
        let abort = f.add_block(Term::Jump(exit));
        let r = f.new_region(RegionInfo {
            begin: f.entry,
            abort_target: abort,
            size_estimate: 1,
        });
        f.block_mut(f.entry).term = Term::RegionBegin {
            region: r,
            body,
            abort,
        };
        f.block_mut(body).region = Some(r);
        let (a, b) = (VReg(0), VReg(1));
        let id1 = f.new_assert(RegionId(0), "one");
        let id2 = f.new_assert(RegionId(0), "two");
        f.block_mut(body).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::Cmp {
                op: CmpOp::Ge,
                a,
                b,
            },
            id: id1,
        }));
        f.block_mut(body).insts.push(Inst::effect(Op::Assert {
            kind: AssertKind::Cmp {
                op: CmpOp::Ge,
                a,
                b,
            },
            id: id2,
        }));
        f.block_mut(body).insts.push(Inst::effect(Op::RegionEnd(r)));

        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.asserts, 1);
    }

    #[test]
    fn commutative_canonicalization() {
        let mut f = Func::new("t", MethodId(0), 2);
        let (a, b) = (VReg(0), VReg(1));
        let d1 = f.vreg();
        let d2 = f.vreg();
        let s = f.vreg();
        let e = f.block_mut(f.entry);
        e.insts.push(Inst::with_dst(d1, Op::Bin(BinOp::Add, a, b)));
        e.insts.push(Inst::with_dst(d2, Op::Bin(BinOp::Add, b, a)));
        e.insts.push(Inst::with_dst(s, Op::Bin(BinOp::Sub, d1, d2)));
        e.term = Term::Return(Some(s));
        let stats = run(&mut f);
        assert_eq!(stats.exprs, 1);
        // Sub is not commutative: a-b != b-a must NOT merge.
        let mut g = Func::new("t2", MethodId(0), 2);
        let d1 = g.vreg();
        let d2 = g.vreg();
        let s = g.vreg();
        let e = g.block_mut(g.entry);
        e.insts.push(Inst::with_dst(d1, Op::Bin(BinOp::Sub, a, b)));
        e.insts.push(Inst::with_dst(d2, Op::Bin(BinOp::Sub, b, a)));
        e.insts.push(Inst::with_dst(s, Op::Bin(BinOp::Add, d1, d2)));
        e.term = Term::Return(Some(s));
        let stats = run(&mut g);
        assert_eq!(stats.exprs, 0);
    }

    #[test]
    fn loop_header_merge_prevents_cross_iteration_forwarding() {
        // load in preheader; loop body stores; load in header must survive.
        let mut f = Func::new("t", MethodId(0), 2);
        let o = VReg(0);
        let v = VReg(1);
        let exit = f.add_block(Term::Return(None));
        let head = f.add_block(Term::Return(None));
        let body = f.add_block(Term::Jump(head));
        let d0 = f.vreg();
        f.block_mut(f.entry).insts.push(Inst::with_dst(
            d0,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(f.entry).term = Term::Jump(head);
        let d1 = f.vreg();
        f.block_mut(head).insts.push(Inst::with_dst(
            d1,
            Op::LoadField {
                obj: o,
                field: FieldId(0),
            },
        ));
        f.block_mut(head).term = Term::Branch {
            op: CmpOp::Lt,
            a: d1,
            b: v,
            t: body,
            f: exit,
            t_count: 10,
            f_count: 1,
        };
        f.block_mut(body).insts.push(Inst::effect(Op::StoreField {
            obj: o,
            field: FieldId(0),
            val: v,
        }));

        let stats = run(&mut f);
        verify(&f).unwrap();
        assert_eq!(stats.loads, 0, "header load must survive the loop store");
    }
}
