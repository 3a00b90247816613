//! Synthetic micro-scenarios shared by examples, tests, and the ablation
//! table: the paper's Figure 2 `addElement` call site, the Figure 5
//! region-formation shape, and the §7 phase-flip (adaptive recompilation)
//! stressor.

use hasp_vm::builder::ProgramBuilder;
use hasp_vm::bytecode::{BinOp, CmpOp, Intrinsic};

use crate::classlib::int_vector;
use crate::workload::{Sample, Workload};

/// Figures 2–3: `m_data.addElement(m_textPendingStart);
/// m_data.addElement(length);` in a hot loop.
pub fn add_element(iters: i64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let vec = int_vector(&mut pb);
    let mut m = pb.method("main", 0);
    let bs = m.imm(4096);
    let data = m.reg();
    m.call(Some(data), vec.new, &[bs]);
    m.marker(1);
    let i = m.imm(0);
    let n = m.imm(iters);
    let one = m.imm(1);
    let head = m.new_label();
    let exit = m.new_label();
    m.bind(head);
    m.branch(CmpOp::Ge, i, n, exit);
    let r = m.reg();
    m.intrin(Intrinsic::NextRandom, Some(r), &[]);
    let k255 = m.imm(255);
    let len = m.reg();
    m.bin(BinOp::And, len, r, k255);
    m.call(None, vec.add, &[data, i]);
    m.call(None, vec.add, &[data, len]);
    m.bin(BinOp::Add, i, i, one);
    m.safepoint();
    m.jump(head);
    m.bind(exit);
    m.marker(1);
    let sz = m.reg();
    m.call(Some(sz), vec.size, &[data]);
    m.checksum(sz);
    let probe = m.imm(123);
    let e = m.reg();
    m.call(Some(e), vec.get, &[data, probe]);
    m.checksum(e);
    m.ret(Some(sz));
    let entry = m.finish(&mut pb);
    Workload {
        name: "addelement",
        description: "Figures 2-3: the Xalan addElement hot/cold call site",
        program: pb.finish(entry),
        samples: vec![Sample {
            marker: 1,
            weight: 1.0,
        }],
        fuel: 200_000_000,
    }
}

/// §7 adaptive-recompilation stressor: one hot loop whose "rare" branch
/// flips from 0% to `late_pct`% taken at iteration `flip_at` — after any
/// plausible first-pass profiling window.
pub fn phase_flip(total: i64, flip_at: i64, late_pct: i64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let st = pb.add_class("Stats", None, &["evens", "odds", "sum"]);
    let f_even = pb.field(st, "evens");
    let f_odd = pb.field(st, "odds");
    let f_sum = pb.field(st, "sum");

    let mut m = pb.method("main", 0);
    let s = m.reg();
    m.new_obj(s, st);
    let one = m.imm(1);
    let k100 = m.imm(100);
    m.marker(1);
    let i = m.imm(0);
    let n = m.imm(total);
    let flip = m.imm(flip_at);
    let kpct = m.imm(late_pct);
    let head = m.new_label();
    let exit = m.new_label();
    let odd = m.new_label();
    let join = m.new_label();
    m.bind(head);
    m.branch(CmpOp::Ge, i, n, exit);
    let late = m.reg();
    m.cmp(CmpOp::Ge, late, i, flip);
    let thr = m.reg();
    m.bin(BinOp::Mul, thr, late, kpct);
    let r = m.reg();
    m.intrin(Intrinsic::NextRandom, Some(r), &[]);
    let sel = m.reg();
    m.bin(BinOp::Rem, sel, r, k100);
    let sum = m.reg();
    m.get_field(sum, s, f_sum);
    m.bin(BinOp::Add, sum, sum, sel);
    m.put_field(s, f_sum, sum);
    m.branch(CmpOp::Lt, sel, thr, odd);
    let e = m.reg();
    m.get_field(e, s, f_even);
    m.bin(BinOp::Add, e, e, one);
    m.put_field(s, f_even, e);
    m.jump(join);
    m.bind(odd);
    let o = m.reg();
    m.get_field(o, s, f_odd);
    m.bin(BinOp::Add, o, o, one);
    m.put_field(s, f_odd, o);
    m.put_field(s, f_sum, o);
    m.jump(join);
    m.bind(join);
    let d = m.reg();
    m.get_field(d, s, f_sum);
    m.checksum(d);
    m.bin(BinOp::Add, i, i, one);
    m.safepoint();
    m.jump(head);
    m.bind(exit);
    m.marker(1);
    for f in [f_even, f_odd, f_sum] {
        let v = m.reg();
        m.get_field(v, s, f);
        m.checksum(v);
    }
    m.ret(None);
    let entry = m.finish(&mut pb);
    Workload {
        name: "phase-flip",
        description: "a hot branch flips bias after the profiling window",
        program: pb.finish(entry),
        samples: vec![Sample {
            marker: 1,
            weight: 1.0,
        }],
        fuel: 200_000_000,
    }
}

/// The §7 post-dominance check-elimination shape: `a[i] = x; a[i+1] = y;`
/// where the second bounds check subsumes the first inside a region.
pub fn postdom_checks(iters: i64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let mut m = pb.method("main", 0);
    let cap = m.imm(4096);
    let arr = m.reg();
    m.new_array(arr, cap);
    m.marker(1);
    let i = m.imm(0);
    let n = m.imm(iters);
    let one = m.imm(1);
    let mask = m.imm(2046);
    let head = m.new_label();
    let exit = m.new_label();
    m.bind(head);
    m.branch(CmpOp::Ge, i, n, exit);
    let base = m.reg();
    m.bin(BinOp::And, base, i, mask);
    m.astore(arr, base, i);
    let next = m.reg();
    m.bin(BinOp::Add, next, base, one);
    m.astore(arr, next, base);
    m.bin(BinOp::Add, i, i, one);
    m.safepoint();
    m.jump(head);
    m.bind(exit);
    m.marker(1);
    let probe = m.imm(99);
    let v = m.reg();
    m.aload(v, arr, probe);
    m.checksum(v);
    m.checksum(i);
    m.ret(None);
    let entry = m.finish(&mut pb);
    Workload {
        name: "postdom-checks",
        description: "§7: check(len,i) post-dominated by check(len,i+1)",
        program: pb.finish(entry),
        samples: vec![Sample {
            marker: 1,
            weight: 1.0,
        }],
        fuel: 200_000_000,
    }
}

/// The governor-ladder adversary: two hot loops in one method. Loop A's
/// per-iteration region scatters stores across ~16 distinct cache lines
/// (an inner stride-8 loop over a 128-element array), so any speculative
/// line budget under its footprint aborts it with `Overflow` on *every*
/// entry — the sustained-overflow shape that drives the governor up the
/// tier ladder and into a `ReformRequest`. Loop B's region touches one
/// line and always commits, so after adaptive re-formation dissolves A's
/// region the method still has healthy committing regions (the
/// reform-and-recover signal the fault campaign gates on).
pub fn footprint_split(iters: i64) -> Workload {
    let mut pb = ProgramBuilder::new();
    let mut m = pb.method("main", 0);
    let cap = m.imm(128);
    let fat = m.reg();
    m.new_array(fat, cap);
    let cap2 = m.imm(8);
    let lean = m.reg();
    m.new_array(lean, cap2);
    m.marker(1);
    let one = m.imm(1);
    let i = m.imm(0);
    let n = m.imm(iters);
    let head = m.new_label();
    let exit = m.new_label();
    // Loop A: 16 stores per iteration, 8 elements (one line) apart.
    m.bind(head);
    m.branch(CmpOp::Ge, i, n, exit);
    {
        let j = m.imm(0);
        let k16 = m.imm(16);
        let eight = m.imm(8);
        let ihead = m.new_label();
        let iexit = m.new_label();
        m.bind(ihead);
        m.branch(CmpOp::Ge, j, k16, iexit);
        let slot = m.reg();
        m.bin(BinOp::Mul, slot, j, eight);
        let v = m.reg();
        m.bin(BinOp::Add, v, i, j);
        m.astore(fat, slot, v);
        m.bin(BinOp::Add, j, j, one);
        m.jump(ihead);
        m.bind(iexit);
    }
    m.bin(BinOp::Add, i, i, one);
    m.safepoint();
    m.jump(head);
    m.bind(exit);
    // Loop B: one line, always commits.
    let k = m.imm(0);
    let mask = m.imm(7);
    let bhead = m.new_label();
    let bexit = m.new_label();
    m.bind(bhead);
    m.branch(CmpOp::Ge, k, n, bexit);
    let slot = m.reg();
    m.bin(BinOp::And, slot, k, mask);
    m.astore(lean, slot, k);
    m.bin(BinOp::Add, k, k, one);
    m.safepoint();
    m.jump(bhead);
    m.bind(bexit);
    m.marker(1);
    let probe = m.imm(120);
    let v = m.reg();
    m.aload(v, fat, probe);
    m.checksum(v);
    let probe2 = m.imm(5);
    let v2 = m.reg();
    m.aload(v2, lean, probe2);
    m.checksum(v2);
    m.ret(None);
    let entry = m.finish(&mut pb);
    Workload {
        name: "footprint-split",
        description: "ladder adversary: a fat-footprint region next to a lean one",
        program: pb.finish(entry),
        samples: vec![Sample {
            marker: 1,
            weight: 1.0,
        }],
        fuel: 200_000_000,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hasp_vm::interp::Interp;

    #[test]
    fn synthetics_run_clean() {
        for w in [
            add_element(2000),
            phase_flip(5000, 4000, 40),
            postdom_checks(2000),
            footprint_split(2000),
        ] {
            let mut interp = Interp::new(&w.program);
            interp.set_fuel(w.fuel);
            interp
                .run(&[])
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }
}
