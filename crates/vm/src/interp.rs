//! The profiling interpreter — the VM's first execution tier.
//!
//! Besides executing bytecode, the interpreter optionally collects the
//! profiles (branch bias, switch case counts, receiver histograms, block
//! counts) that drive region formation and inlining, mirroring the
//! instrumenting first-pass compiler of the paper's JVM (§4, §5).

use crate::bytecode::{Instr, Intrinsic, MethodId};
use crate::class::Program;
use crate::env::Env;
use crate::error::{Trap, VmError};
use crate::heap::Heap;
use crate::profile::Profile;
use crate::value::{ObjId, Value};

/// The mutator thread id used by the single simulated thread.
pub const MUTATOR_THREAD: i64 = 1;

/// Interpreter state over a program.
#[derive(Debug)]
pub struct Interp<'p> {
    program: &'p Program,
    /// The object heap (shared with compiled execution in mixed flows).
    pub heap: Heap,
    /// Observable side effects (checksum, RNG, markers).
    pub env: Env,
    /// Collected profile (only updated while [`Interp::profiling`] is on).
    pub profile: Profile,
    /// Whether profile counters are updated.
    pub profiling: bool,
    /// Total bytecode instructions executed.
    pub steps: u64,
    fuel: u64,
    max_depth: usize,
}

impl<'p> Interp<'p> {
    /// Creates an interpreter with a fresh heap and default environment.
    pub fn new(program: &'p Program) -> Self {
        Interp {
            program,
            heap: Heap::new(),
            env: Env::default(),
            profile: Profile::new(),
            profiling: false,
            steps: 0,
            fuel: u64::MAX,
            max_depth: 512,
        }
    }

    /// Sets the maximum number of instructions to execute before
    /// [`VmError::FuelExhausted`]. Guards tests against runaway loops.
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Enables profile collection.
    pub fn with_profiling(mut self) -> Self {
        self.profiling = true;
        self
    }

    /// Runs the program's entry method with `args`.
    ///
    /// # Errors
    /// Returns a [`VmError`] on a trap, fuel exhaustion, stack overflow, or
    /// ill-typed bytecode.
    pub fn run(&mut self, args: &[Value]) -> Result<Option<Value>, VmError> {
        self.call(self.program.entry(), args, 0)
    }

    /// Invokes an arbitrary method (used by tests and the experiment driver).
    ///
    /// # Errors
    /// Same conditions as [`Interp::run`].
    pub fn call(
        &mut self,
        m: MethodId,
        args: &[Value],
        depth: usize,
    ) -> Result<Option<Value>, VmError> {
        if depth >= self.max_depth {
            return Err(VmError::StackOverflow);
        }
        let method = self.program.method(m);
        assert_eq!(
            args.len(),
            method.argc as usize,
            "arity mismatch calling {}",
            method.name
        );
        let mut regs = vec![Value::Int(0); method.regs as usize];
        regs[..args.len()].copy_from_slice(args);

        if self.profiling {
            self.profile.method_mut(m, method.code.len()).invocations += 1;
        }
        if method.synchronized {
            let recv = self.require_obj(regs[0], m, 0)?;
            self.heap.monitor_enter(recv, MUTATOR_THREAD);
        }
        let result = self.exec_body(m, &mut regs, depth);
        if method.synchronized {
            // Balanced on every exit path (our methods return normally or the
            // whole run fails, so unconditional release is correct).
            if let Value::Ref(Some(recv)) = regs[0] {
                self.heap.monitor_exit(recv, MUTATOR_THREAD);
            }
        }
        result
    }

    fn exec_body(
        &mut self,
        m: MethodId,
        regs: &mut [Value],
        depth: usize,
    ) -> Result<Option<Value>, VmError> {
        let method = self.program.method(m);
        let code = &method.code;
        let mut pc = 0usize;
        loop {
            if self.fuel == 0 {
                return Err(VmError::FuelExhausted);
            }
            self.fuel -= 1;
            self.steps += 1;
            if self.profiling {
                self.profile.method_mut(m, code.len()).exec[pc] += 1;
            }
            let instr = &code[pc];
            match instr {
                Instr::Const { dst, value } => regs[dst.0 as usize] = Value::Int(*value),
                Instr::ConstNull { dst } => regs[dst.0 as usize] = Value::NULL,
                Instr::Move { dst, src } => regs[dst.0 as usize] = regs[src.0 as usize],
                Instr::Bin { op, dst, a, b } => {
                    let av = self.require_int(regs[a.0 as usize], m, pc)?;
                    let bv = self.require_int(regs[b.0 as usize], m, pc)?;
                    let r = op.eval(av, bv).ok_or(VmError::Trap {
                        trap: Trap::DivByZero,
                        method: m,
                        pc,
                    })?;
                    regs[dst.0 as usize] = Value::Int(r);
                }
                Instr::Cmp { op, dst, a, b } => {
                    let t = self.eval_cmp(*op, regs[a.0 as usize], regs[b.0 as usize], m, pc)?;
                    regs[dst.0 as usize] = Value::Int(i64::from(t));
                }
                Instr::Branch { op, a, b, target } => {
                    let taken =
                        self.eval_cmp(*op, regs[a.0 as usize], regs[b.0 as usize], m, pc)?;
                    if self.profiling {
                        let e = &mut self.profile.method_mut(m, code.len()).branches[pc];
                        if taken {
                            e.0 += 1;
                        } else {
                            e.1 += 1;
                        }
                    }
                    if taken {
                        pc = *target;
                        continue;
                    }
                }
                Instr::Jump { target } => {
                    pc = *target;
                    continue;
                }
                Instr::Switch {
                    src,
                    targets,
                    default,
                } => {
                    let v = self.require_int(regs[src.0 as usize], m, pc)?;
                    let case = if v >= 0 && (v as usize) < targets.len() {
                        v as usize
                    } else {
                        targets.len()
                    };
                    if self.profiling {
                        let counts = self
                            .profile
                            .method_mut(m, code.len())
                            .switches
                            .entry(pc)
                            .or_insert_with(|| vec![0; targets.len() + 1]);
                        counts[case] += 1;
                    }
                    pc = if case < targets.len() {
                        targets[case]
                    } else {
                        *default
                    };
                    continue;
                }
                Instr::New { dst, class } => {
                    let n = self.program.class(*class).field_count();
                    let o = self.heap.alloc_object(*class, n);
                    regs[dst.0 as usize] = Value::from(o);
                }
                Instr::NewArray { dst, len } => {
                    let n = self.require_int(regs[len.0 as usize], m, pc)?;
                    if n < 0 {
                        return Err(VmError::Trap {
                            trap: Trap::OutOfBounds,
                            method: m,
                            pc,
                        });
                    }
                    let o = self.heap.alloc_array(n as usize);
                    regs[dst.0 as usize] = Value::from(o);
                }
                Instr::GetField { dst, obj, field } => {
                    let o = self.check_null(regs[obj.0 as usize], m, pc)?;
                    regs[dst.0 as usize] = self.heap.get_field(o, field.0);
                }
                Instr::PutField { obj, field, src } => {
                    let o = self.check_null(regs[obj.0 as usize], m, pc)?;
                    self.heap.set_field(o, field.0, regs[src.0 as usize]);
                }
                Instr::ALoad { dst, arr, idx } => {
                    let (o, i) =
                        self.check_array(regs[arr.0 as usize], regs[idx.0 as usize], m, pc)?;
                    regs[dst.0 as usize] = self.heap.array_get(o, i);
                }
                Instr::AStore { arr, idx, src } => {
                    let (o, i) =
                        self.check_array(regs[arr.0 as usize], regs[idx.0 as usize], m, pc)?;
                    self.heap.array_set(o, i, regs[src.0 as usize]);
                }
                Instr::ArrayLen { dst, arr } => {
                    let o = self.check_null(regs[arr.0 as usize], m, pc)?;
                    let n = self.heap.array_len(o).ok_or(VmError::TypeMismatch {
                        method: m,
                        pc,
                        what: "arraylen on non-array",
                    })?;
                    regs[dst.0 as usize] = Value::Int(n as i64);
                }
                Instr::Call {
                    dst,
                    method: callee,
                    args,
                } => {
                    let argv: Vec<Value> = args.iter().map(|r| regs[r.0 as usize]).collect();
                    let ret = self.call(*callee, &argv, depth + 1)?;
                    if let Some(d) = dst {
                        regs[d.0 as usize] = ret.unwrap_or(Value::Int(0));
                    }
                }
                Instr::CallVirtual {
                    dst,
                    slot,
                    recv,
                    args,
                } => {
                    let o = self.check_null(regs[recv.0 as usize], m, pc)?;
                    let class = self.heap.class_of(o);
                    if self.profiling {
                        *self
                            .profile
                            .method_mut(m, code.len())
                            .receivers
                            .entry(pc)
                            .or_default()
                            .entry(class)
                            .or_insert(0) += 1;
                    }
                    let callee = self.program.resolve_virtual(class, *slot);
                    let mut argv = vec![regs[recv.0 as usize]];
                    argv.extend(args.iter().map(|r| regs[r.0 as usize]));
                    let ret = self.call(callee, &argv, depth + 1)?;
                    if let Some(d) = dst {
                        regs[d.0 as usize] = ret.unwrap_or(Value::Int(0));
                    }
                }
                Instr::Return { src } => {
                    return Ok(src.map(|r| regs[r.0 as usize]));
                }
                Instr::MonitorEnter { obj } => {
                    let o = self.check_null(regs[obj.0 as usize], m, pc)?;
                    self.heap.monitor_enter(o, MUTATOR_THREAD);
                }
                Instr::MonitorExit { obj } => {
                    let o = self.check_null(regs[obj.0 as usize], m, pc)?;
                    if !self.heap.monitor_exit(o, MUTATOR_THREAD) {
                        return Err(VmError::Trap {
                            trap: Trap::IllegalMonitorState,
                            method: m,
                            pc,
                        });
                    }
                }
                Instr::InstanceOf { dst, obj, class } => {
                    let is = match regs[obj.0 as usize] {
                        Value::Ref(Some(o)) => {
                            self.program.is_subclass(self.heap.class_of(o), *class)
                        }
                        Value::Ref(None) => false,
                        Value::Int(_) => {
                            return Err(VmError::TypeMismatch {
                                method: m,
                                pc,
                                what: "instanceof on int",
                            })
                        }
                    };
                    regs[dst.0 as usize] = Value::Int(i64::from(is));
                }
                Instr::CheckCast { obj, class } => match regs[obj.0 as usize] {
                    Value::Ref(None) => {}
                    Value::Ref(Some(o)) => {
                        if !self.program.is_subclass(self.heap.class_of(o), *class) {
                            return Err(VmError::Trap {
                                trap: Trap::ClassCast,
                                method: m,
                                pc,
                            });
                        }
                    }
                    Value::Int(_) => {
                        return Err(VmError::TypeMismatch {
                            method: m,
                            pc,
                            what: "checkcast on int",
                        })
                    }
                },
                Instr::Safepoint => {
                    // Poll the yield flag; in this simulation it is never set.
                }
                Instr::Intrin { kind, dst, args } => {
                    let out = match kind {
                        Intrinsic::Checksum => {
                            let v = regs[args[0].0 as usize];
                            self.env.checksum_push(v.encode());
                            None
                        }
                        Intrinsic::NextRandom => Some(Value::Int(self.env.next_random())),
                        Intrinsic::YieldFlag => Some(Value::Int(0)),
                    };
                    if let (Some(d), Some(v)) = (dst, out) {
                        regs[d.0 as usize] = v;
                    }
                }
                Instr::Marker { id } => {
                    self.env.hit_marker(*id);
                }
            }
            pc += 1;
        }
    }

    fn eval_cmp(
        &self,
        op: crate::bytecode::CmpOp,
        a: Value,
        b: Value,
        m: MethodId,
        pc: usize,
    ) -> Result<bool, VmError> {
        use crate::bytecode::CmpOp;
        match (a, b) {
            (Value::Int(x), Value::Int(y)) => Ok(op.eval_int(x, y)),
            (Value::Ref(x), Value::Ref(y)) => match op {
                CmpOp::Eq => Ok(x == y),
                CmpOp::Ne => Ok(x != y),
                _ => Err(VmError::TypeMismatch {
                    method: m,
                    pc,
                    what: "ordered cmp on refs",
                }),
            },
            _ => Err(VmError::TypeMismatch {
                method: m,
                pc,
                what: "cmp int vs ref",
            }),
        }
    }

    fn require_int(&self, v: Value, m: MethodId, pc: usize) -> Result<i64, VmError> {
        match v {
            Value::Int(x) => Ok(x),
            Value::Ref(_) => Err(VmError::TypeMismatch {
                method: m,
                pc,
                what: "expected int",
            }),
        }
    }

    fn require_obj(&self, v: Value, m: MethodId, pc: usize) -> Result<ObjId, VmError> {
        self.check_null(v, m, pc)
    }

    fn check_null(&self, v: Value, m: MethodId, pc: usize) -> Result<ObjId, VmError> {
        match v {
            Value::Ref(Some(o)) => Ok(o),
            Value::Ref(None) => Err(VmError::Trap {
                trap: Trap::NullPointer,
                method: m,
                pc,
            }),
            Value::Int(_) => Err(VmError::TypeMismatch {
                method: m,
                pc,
                what: "expected ref",
            }),
        }
    }

    fn check_array(
        &self,
        arr: Value,
        idx: Value,
        m: MethodId,
        pc: usize,
    ) -> Result<(ObjId, u32), VmError> {
        let o = self.check_null(arr, m, pc)?;
        let i = self.require_int(idx, m, pc)?;
        let len = self.heap.array_len(o).ok_or(VmError::TypeMismatch {
            method: m,
            pc,
            what: "array op on non-array",
        })?;
        if i < 0 || i as usize >= len {
            return Err(VmError::Trap {
                trap: Trap::OutOfBounds,
                method: m,
                pc,
            });
        }
        Ok((o, i as u32))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ProgramBuilder;
    use crate::bytecode::{BinOp, CmpOp};

    fn run_main(pb: ProgramBuilder, entry: MethodId) -> (Option<Value>, Interp<'static>) {
        // Leak for test convenience: tests run once per process.
        let p: &'static Program = Box::leak(Box::new(pb.finish(entry)));
        let mut i = Interp::new(p).with_profiling();
        i.set_fuel(10_000_000);
        let r = i.run(&[]).expect("run failed");
        (r, i)
    }

    #[test]
    fn loop_sums() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let sum = m.imm(0);
        let i = m.imm(0);
        let n = m.imm(100);
        let one = m.imm(1);
        let head = m.new_label();
        let exit = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        m.bin(BinOp::Add, sum, sum, i);
        m.bin(BinOp::Add, i, i, one);
        m.safepoint();
        m.jump(head);
        m.bind(exit);
        m.ret(Some(sum));
        let entry = m.finish(&mut pb);
        let (r, interp) = run_main(pb, entry);
        assert_eq!(r, Some(Value::Int(4950)));
        // Branch profile: taken once (exit), not-taken 100 times.
        let prof = interp.profile.method(entry).unwrap();
        assert_eq!(prof.branch_counts(4), (1, 100));
    }

    #[test]
    fn recursion_factorial() {
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare("fact", 1);
        let mut f = pb.method("fact", 1);
        let base = f.new_label();
        let one = f.imm(1);
        f.branch(CmpOp::Le, f.arg(0), one, base);
        let n1 = f.reg();
        f.bin(BinOp::Sub, n1, f.arg(0), one);
        let rec = f.reg();
        f.call(Some(rec), fid, &[n1]);
        let out = f.reg();
        f.bin(BinOp::Mul, out, f.arg(0), rec);
        f.ret(Some(out));
        f.bind(base);
        f.ret(Some(one));
        f.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let ten = m.imm(10);
        let r = m.reg();
        m.call(Some(r), fid, &[ten]);
        m.ret(Some(r));
        let entry = m.finish(&mut pb);
        let (r, _) = run_main(pb, entry);
        assert_eq!(r, Some(Value::Int(3_628_800)));
    }

    #[test]
    fn virtual_dispatch_and_receiver_profile() {
        let mut pb = ProgramBuilder::new();
        let get_a = pb.declare("A.get", 1);
        let get_b = pb.declare("B.get", 1);
        let a = pb.add_class("A", None, &[]);
        let slot = pb.add_slot(a, get_a);
        let b = pb.add_class("B", Some(a), &[]);
        pb.override_slot(b, slot, get_b);
        for (name, v) in [("A.get", 10i64), ("B.get", 20)] {
            let mut m = pb.method(name, 1);
            let r = m.imm(v);
            m.ret(Some(r));
            m.finish(&mut pb);
        }
        let mut m = pb.method("main", 0);
        let oa = m.reg();
        m.new_obj(oa, a);
        let ob = m.reg();
        m.new_obj(ob, b);
        let ra = m.reg();
        m.call_virtual(Some(ra), slot, oa, &[]);
        let rb = m.reg();
        m.call_virtual(Some(rb), slot, ob, &[]);
        let out = m.reg();
        m.bin(BinOp::Add, out, ra, rb);
        m.ret(Some(out));
        let entry = m.finish(&mut pb);
        let (r, interp) = run_main(pb, entry);
        assert_eq!(r, Some(Value::Int(30)));
        let prof = interp.profile.method(entry).unwrap();
        // Two virtual sites (pc 2 and 3), each monomorphic.
        assert_eq!(prof.monomorphic_receiver(2), Some(a));
        assert_eq!(prof.monomorphic_receiver(3), Some(b));
    }

    /// The dense counters read like sparse ones: a method that never ran
    /// has no profile, and a pc that never executed counts zero.
    #[test]
    fn unrun_code_profiles_as_zero() {
        let mut pb = ProgramBuilder::new();
        let unused = pb.declare("unused", 0);
        let mut m = pb.method("unused", 0);
        m.ret(None);
        m.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let zero = m.imm(0);
        let out = m.new_label();
        m.branch(CmpOp::Eq, zero, zero, out); // always taken
        m.branch(CmpOp::Ne, zero, zero, out); // never executed
        m.bind(out);
        m.ret(Some(zero));
        let entry = m.finish(&mut pb);
        let (_, interp) = run_main(pb, entry);
        assert!(interp.profile.method(unused).is_none());
        let branches: Vec<usize> = interp
            .program
            .method(entry)
            .code
            .iter()
            .enumerate()
            .filter(|(_, i)| matches!(i, Instr::Branch { .. }))
            .map(|(pc, _)| pc)
            .collect();
        let [taken, skipped] = branches[..] else {
            panic!("expected two branches, found {branches:?}")
        };
        let prof = interp.profile.method(entry).unwrap();
        assert_eq!(prof.branch_counts(taken), (1, 0));
        assert_eq!(prof.exec_count(skipped), 0);
        assert_eq!(prof.branch_bias(skipped), None);
    }

    #[test]
    fn null_pointer_traps() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &["f"]);
        let fld = pb.field(c, "f");
        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.const_null(o);
        let d = m.reg();
        m.get_field(d, o, fld);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut i = Interp::new(&p);
        let err = i.run(&[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap {
                trap: Trap::NullPointer,
                ..
            }
        ));
    }

    #[test]
    fn bounds_trap() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let len = m.imm(3);
        let a = m.reg();
        m.new_array(a, len);
        let idx = m.imm(3);
        let d = m.reg();
        m.aload(d, a, idx);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut i = Interp::new(&p);
        let err = i.run(&[]).unwrap_err();
        assert!(matches!(
            err,
            VmError::Trap {
                trap: Trap::OutOfBounds,
                ..
            }
        ));
    }

    #[test]
    fn synchronized_method_balances_monitor() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &["v"]);
        let fld = pb.field(c, "v");
        let mut s = pb.method("C.bump", 1);
        s.set_synchronized();
        let v = s.reg();
        s.get_field(v, s.arg(0), fld);
        let one = s.imm(1);
        s.bin(BinOp::Add, v, v, one);
        s.put_field(s.arg(0), fld, v);
        s.ret(None);
        let bump = s.finish(&mut pb);

        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, c);
        m.call(None, bump, &[o]);
        m.call(None, bump, &[o]);
        let out = m.reg();
        m.get_field(out, o, fld);
        m.ret(Some(out));
        let entry = m.finish(&mut pb);
        let (r, interp) = run_main(pb, entry);
        assert_eq!(r, Some(Value::Int(2)));
        // Monitor fully released.
        assert_eq!(interp.heap.lock_word(ObjId(0)), 0);
    }

    #[test]
    fn fuel_exhaustion() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let head = m.new_label();
        m.bind(head);
        m.safepoint();
        m.jump(head);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut i = Interp::new(&p);
        i.set_fuel(1000);
        assert_eq!(i.run(&[]).unwrap_err(), VmError::FuelExhausted);
    }

    #[test]
    fn switch_dispatch_and_profile() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let acc = m.imm(0);
        let i = m.imm(0);
        let n = m.imm(9);
        let one = m.imm(1);
        let three = m.imm(3);
        let head = m.new_label();
        let exit = m.new_label();
        let c0 = m.new_label();
        let c1 = m.new_label();
        let c2 = m.new_label();
        let join = m.new_label();
        m.bind(head);
        m.branch(CmpOp::Ge, i, n, exit);
        let sel = m.reg();
        m.bin(BinOp::Rem, sel, i, three);
        m.switch(sel, &[c0, c1], c2);
        m.bind(c0);
        m.bin(BinOp::Add, acc, acc, one);
        m.jump(join);
        m.bind(c1);
        m.bin(BinOp::Add, acc, acc, three);
        m.jump(join);
        m.bind(c2);
        m.bin(BinOp::Add, acc, acc, n);
        m.jump(join);
        m.bind(join);
        m.bin(BinOp::Add, i, i, one);
        m.jump(head);
        m.bind(exit);
        m.ret(Some(acc));
        let entry = m.finish(&mut pb);
        let (r, interp) = run_main(pb, entry);
        assert_eq!(r, Some(Value::Int(3 * (1 + 3 + 9))));
        let prof = interp.profile.method(entry).unwrap();
        let counts = prof.switches.values().next().unwrap();
        assert_eq!(counts, &vec![3, 3, 3]);
    }
}
