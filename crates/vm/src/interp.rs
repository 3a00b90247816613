//! The profiling interpreter — the VM's first execution tier.
//!
//! Besides executing bytecode, the interpreter optionally collects the
//! profiles (branch bias, switch case counts, receiver histograms, block
//! counts) that drive region formation and inlining, mirroring the
//! instrumenting first-pass compiler of the paper's JVM (§4, §5).
//!
//! One loop runs every frame of an [`Interp::call`] over an explicit frame
//! stack, whose register windows share one pooled vector. It dispatches a
//! straight-line *run* at a time: a run starts at a block leader
//! ([`block_leaders`], the cut `translate` uses) or right after a call, and
//! ends at the next leader or after the next call. Fuel, steps and the run's
//! execution count are charged once, when the run starts; a fuel budget too
//! small for the whole run stops it at the exact step the budget runs out
//! on, and a trap mid-run takes back the unexecuted rest. Counts go to flat
//! program-wide arrays, folded into the [`Profile`] once, when the call
//! returns.

use crate::bytecode::{block_leaders, ClassId, CmpOp, Instr, Intrinsic, MethodId, Reg};
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
    counters: Counters,
    frames: Vec<Frame>,
    /// Every frame's registers, the innermost frame's window last.
    regs: Vec<Value>,
}

/// One activation on the interpreter's frame stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    method: MethodId,
    /// Index of the method's pc 0 in the flat per-pc tables.
    flat: u32,
    /// First register of the frame's window in `Interp::regs`.
    regs: u32,
    /// While suspended: the pc of the call in progress.
    pc: u32,
    /// The caller's register that receives the return value.
    ret: Option<Reg>,
    /// The method is synchronized: its receiver's monitor is released on
    /// every exit.
    sync: bool,
}

/// Counters of one pc.
#[derive(Debug, Clone, Copy, Default)]
struct PcCount {
    /// Execution-count difference within the pc's run: +1 at the run's
    /// first pc each time the run starts, −1 at the first pc a trap or fuel
    /// exhaustion left unexecuted. A pc's execution count is the (wrapping)
    /// sum over its run's pcs up to and including it.
    exec: u64,
    /// (taken, not-taken) counts of the conditional branch at this pc.
    branch: [u64; 2],
}

/// The flat, program-wide profile counters of one [`Interp::call`], and the
/// per-program tables that index them; folded into a [`Profile`] (or just
/// cleared) when the call returns.
#[derive(Debug)]
struct Counters {
    /// `base[m]`: index of method `m`'s pc 0 in the per-pc tables.
    base: Vec<u32>,
    /// Per pc: the method-local, exclusive end of the run containing it.
    run_end: Vec<u32>,
    /// Per pc: the first slot of the switch there (in `switches`) or of the
    /// virtual call there (in `receivers`, one slot per class); 0 elsewhere.
    site: Vec<u32>,
    classes: usize,
    /// Per method: invocations.
    invocations: Vec<u64>,
    pcs: Vec<PcCount>,
    /// Per switch: one count per case, then the default's.
    switches: Vec<u64>,
    /// Per virtual call and receiver class: calls.
    receivers: Vec<u64>,
}

impl Counters {
    fn new(program: &Program) -> Self {
        let classes = program.class_count();
        let mut base = Vec::with_capacity(program.method_count());
        let (mut run_end, mut site) = (Vec::new(), Vec::new());
        let (mut switches, mut receivers) = (0usize, 0usize);
        for m in program.method_ids() {
            let code = &program.method(m).code;
            let first = run_end.len();
            base.push(first as u32);
            let leaders = block_leaders(code);
            run_end.resize(first + code.len(), 0);
            let mut end = code.len();
            for pc in (0..code.len()).rev() {
                if leaders[pc + 1]
                    || matches!(code[pc], Instr::Call { .. } | Instr::CallVirtual { .. })
                {
                    end = pc + 1;
                }
                run_end[first + pc] = end as u32;
            }
            for instr in code {
                let (slots, n) = match instr {
                    Instr::Switch { targets, .. } => (&mut switches, targets.len() + 1),
                    Instr::CallVirtual { .. } => (&mut receivers, classes),
                    _ => (&mut 0, 0),
                };
                site.push(*slots as u32);
                *slots += n;
            }
        }
        Counters {
            invocations: vec![0; base.len()],
            pcs: vec![PcCount::default(); run_end.len()],
            switches: vec![0; switches],
            receivers: vec![0; receivers],
            base,
            run_end,
            site,
            classes,
        }
    }

    /// Adds every counter into `profile` (when given) and zeroes it. Only
    /// methods entered since the last fold can hold counts.
    fn fold(&mut self, program: &Program, mut profile: Option<&mut Profile>) {
        for m in program.method_ids() {
            let invocations = std::mem::take(&mut self.invocations[m.0 as usize]);
            if invocations == 0 {
                continue;
            }
            let code = &program.method(m).code;
            let flat = self.base[m.0 as usize] as usize;
            let mut prof = profile.as_deref_mut().map(|p| p.method_mut(m, code.len()));
            if let Some(p) = prof.as_deref_mut() {
                p.invocations += invocations;
            }
            let mut exec = 0u64;
            for (pc, instr) in code.iter().enumerate() {
                let i = flat + pc;
                let c = std::mem::take(&mut self.pcs[i]);
                if pc == 0 || self.run_end[i - 1] as usize == pc {
                    exec = 0;
                }
                exec = exec.wrapping_add(c.exec);
                let site = self.site[i] as usize;
                let slots = match instr {
                    Instr::Switch { targets, .. } => {
                        &mut self.switches[site..=site + targets.len()]
                    }
                    Instr::CallVirtual { .. } => &mut self.receivers[site..site + self.classes],
                    _ => &mut [],
                };
                let Some(p) = prof.as_deref_mut() else {
                    slots.fill(0);
                    continue;
                };
                p.exec[pc] += exec;
                p.branches[pc].0 += c.branch[0];
                p.branches[pc].1 += c.branch[1];
                if slots.iter().all(|&n| n == 0) {
                    continue;
                }
                if matches!(instr, Instr::Switch { .. }) {
                    let counts = p.switches.entry(pc).or_insert_with(|| vec![0; slots.len()]);
                    for (sum, n) in counts.iter_mut().zip(slots.iter_mut()) {
                        *sum += std::mem::take(n);
                    }
                } else {
                    let histogram = p.receivers.entry(pc).or_default();
                    for (class, n) in slots.iter_mut().enumerate() {
                        if *n > 0 {
                            *histogram.entry(ClassId(class as u32)).or_insert(0) +=
                                std::mem::take(n);
                        }
                    }
                }
            }
        }
    }
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
            counters: Counters::new(program),
            frames: Vec::new(),
            regs: Vec::new(),
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

    /// Invokes an arbitrary method (used by tests and the experiments crate)
    /// with `depth` frames counted as already on the stack.
    ///
    /// # Errors
    /// Same conditions as [`Interp::run`].
    pub fn call(
        &mut self,
        m: MethodId,
        args: &[Value],
        depth: usize,
    ) -> Result<Option<Value>, VmError> {
        let fuel = self.fuel;
        let result = self.exec(m, args, depth);
        self.steps += fuel - self.fuel;
        let profile = self.profiling.then_some(&mut self.profile);
        self.counters.fold(self.program, profile);
        result
    }

    /// The interpreter loop: runs `entry` and everything it calls to
    /// completion or to the first error.
    #[allow(clippy::too_many_lines)]
    fn exec(
        &mut self,
        entry: MethodId,
        args: &[Value],
        depth: usize,
    ) -> Result<Option<Value>, VmError> {
        let program = self.program;
        let mut fuel = self.fuel;
        let room = self.max_depth.saturating_sub(depth);
        let Interp {
            heap,
            env,
            counters,
            frames,
            regs,
            ..
        } = self;
        frames.clear();
        regs.clear();
        regs.extend_from_slice(args);

        // The innermost frame, held in locals: its code, the index of its
        // pc 0 in the per-pc tables, and its register window `w` (the tail
        // of `regs`, starting at `rb`). `end` and `limit` bound the current
        // run: it ends before `end`, and fuel lasts until `limit`.
        let (mut code, mut w, mut rb, mut pc): (&[Instr], &mut [Value], usize, usize);
        let (mut flat, mut end, mut limit) = (0usize, 0usize, 0usize);

        // `Err((error, resume))`: `resume` is the first pc of the current
        // run left unexecuted.
        let result: Result<Option<Value>, (VmError, usize)> = 'exec: {
            macro_rules! fail {
                ($e:expr, $resume:expr) => {
                    break 'exec Err(($e, $resume))
                };
            }
            // A failed check at `pc`, which counts as executed.
            macro_rules! tri {
                ($e:expr) => {
                    match $e {
                        Ok(v) => v,
                        Err(f) => fail!(f.at(frames.last().expect("frame").method, pc), pc + 1),
                    }
                };
            }
            macro_rules! r {
                ($reg:expr) => {
                    w[$reg.0 as usize]
                };
            }
            // Opens a frame for `callee` over the `nargs` arguments on top
            // of the register stack and makes it the innermost frame.
            macro_rules! enter {
                ($callee:expr, $nargs:expr, $ret:expr, $resume:expr) => {{
                    let callee: MethodId = $callee;
                    if frames.len() >= room {
                        fail!(VmError::StackOverflow, $resume);
                    }
                    let method = program.method(callee);
                    let nargs: usize = $nargs;
                    assert_eq!(
                        nargs, method.argc as usize,
                        "arity mismatch calling {}",
                        method.name
                    );
                    let window = regs.len() - nargs;
                    for _ in nargs..usize::from(method.regs) {
                        regs.push(Value::Int(0));
                    }
                    counters.invocations[callee.0 as usize] += 1;
                    if method.synchronized {
                        match check_null(regs[window]) {
                            Ok(recv) => heap.monitor_enter(recv, MUTATOR_THREAD),
                            Err(f) => fail!(f.at(callee, 0), $resume),
                        };
                    }
                    code = &method.code;
                    flat = counters.base[callee.0 as usize] as usize;
                    rb = window;
                    w = &mut regs[rb..];
                    pc = 0;
                    frames.push(Frame {
                        method: callee,
                        flat: flat as u32,
                        regs: rb as u32,
                        pc: 0,
                        ret: $ret,
                        sync: method.synchronized,
                    });
                }};
            }

            enter!(entry, args.len(), None, 0);
            'run: loop {
                // A run starts at `pc`: count it and charge its fuel.
                end = counters.run_end[flat + pc] as usize;
                counters.pcs[flat + pc].exec += 1;
                let n = (end - pc) as u64;
                if fuel >= n {
                    fuel -= n;
                    limit = end;
                } else {
                    // Within one run of exhaustion: stop at the exact step.
                    limit = pc + fuel as usize;
                    fuel = 0;
                }
                loop {
                    if pc == limit {
                        if pc == end {
                            continue 'run;
                        }
                        fail!(VmError::FuelExhausted, pc);
                    }
                    match &code[pc] {
                        Instr::Const { dst, value } => r!(dst) = Value::Int(*value),
                        Instr::ConstNull { dst } => r!(dst) = Value::NULL,
                        Instr::Move { dst, src } => r!(dst) = r!(src),
                        Instr::Bin { op, dst, a, b } => {
                            let av = tri!(require_int(r!(a)));
                            let bv = tri!(require_int(r!(b)));
                            let v = tri!(op.eval(av, bv).ok_or(Fault::Trap(Trap::DivByZero)));
                            r!(dst) = Value::Int(v);
                        }
                        Instr::Cmp { op, dst, a, b } => {
                            let t = tri!(eval_cmp(*op, r!(a), r!(b)));
                            r!(dst) = Value::Int(i64::from(t));
                        }
                        Instr::Branch { op, a, b, target } => {
                            let taken = tri!(eval_cmp(*op, r!(a), r!(b)));
                            counters.pcs[flat + pc].branch[usize::from(!taken)] += 1;
                            pc = if taken { *target } else { pc + 1 };
                            continue 'run;
                        }
                        Instr::Jump { target } => {
                            pc = *target;
                            continue 'run;
                        }
                        Instr::Switch {
                            src,
                            targets,
                            default,
                        } => {
                            let v = tri!(require_int(r!(src)));
                            let case = if v >= 0 && (v as usize) < targets.len() {
                                v as usize
                            } else {
                                targets.len()
                            };
                            counters.switches[counters.site[flat + pc] as usize + case] += 1;
                            pc = targets.get(case).copied().unwrap_or(*default);
                            continue 'run;
                        }
                        Instr::New { dst, class } => {
                            let n = program.class(*class).field_count();
                            r!(dst) = Value::from(heap.alloc_object(*class, n));
                        }
                        Instr::NewArray { dst, len } => {
                            let n = tri!(require_int(r!(len)));
                            if n < 0 {
                                tri!(Err(Fault::Trap(Trap::OutOfBounds)));
                            }
                            r!(dst) = Value::from(heap.alloc_array(n as usize));
                        }
                        Instr::GetField { dst, obj, field } => {
                            let o = tri!(check_null(r!(obj)));
                            r!(dst) = heap.get_field(o, field.0);
                        }
                        Instr::PutField { obj, field, src } => {
                            let o = tri!(check_null(r!(obj)));
                            heap.set_field(o, field.0, r!(src));
                        }
                        Instr::ALoad { dst, arr, idx } => {
                            let (o, i) = tri!(check_array(heap, r!(arr), r!(idx)));
                            r!(dst) = heap.array_get(o, i);
                        }
                        Instr::AStore { arr, idx, src } => {
                            let (o, i) = tri!(check_array(heap, r!(arr), r!(idx)));
                            heap.array_set(o, i, r!(src));
                        }
                        Instr::ArrayLen { dst, arr } => {
                            let o = tri!(check_null(r!(arr)));
                            let n = tri!(heap
                                .array_len(o)
                                .ok_or(Fault::Type("arraylen on non-array")));
                            r!(dst) = Value::Int(n as i64);
                        }
                        Instr::Call {
                            dst,
                            method: callee,
                            args,
                        } => {
                            for a in args {
                                regs.push(regs[rb + a.0 as usize]);
                            }
                            frames.last_mut().expect("frame").pc = pc as u32;
                            enter!(*callee, args.len(), *dst, pc + 1);
                            continue 'run;
                        }
                        Instr::CallVirtual {
                            dst,
                            slot,
                            recv,
                            args,
                        } => {
                            let o = tri!(check_null(r!(recv)));
                            let class = heap.class_of(o);
                            let site = counters.site[flat + pc] as usize;
                            counters.receivers[site + class.0 as usize] += 1;
                            let callee = program.resolve_virtual(class, *slot);
                            regs.push(regs[rb + recv.0 as usize]);
                            for a in args {
                                regs.push(regs[rb + a.0 as usize]);
                            }
                            frames.last_mut().expect("frame").pc = pc as u32;
                            enter!(callee, args.len() + 1, *dst, pc + 1);
                            continue 'run;
                        }
                        Instr::Return { src } => {
                            let v = src.map(|s| r!(s));
                            let done = frames.pop().expect("frame");
                            if done.sync {
                                if let Value::Ref(Some(recv)) = r!(Reg(0)) {
                                    heap.monitor_exit(recv, MUTATOR_THREAD);
                                }
                            }
                            regs.truncate(rb);
                            let Some(caller) = frames.last() else {
                                break 'exec Ok(v);
                            };
                            code = &program.method(caller.method).code;
                            flat = caller.flat as usize;
                            rb = caller.regs as usize;
                            w = &mut regs[rb..];
                            pc = caller.pc as usize + 1;
                            if let Some(d) = done.ret {
                                r!(d) = v.unwrap_or(Value::Int(0));
                            }
                            continue 'run;
                        }
                        Instr::MonitorEnter { obj } => {
                            let o = tri!(check_null(r!(obj)));
                            heap.monitor_enter(o, MUTATOR_THREAD);
                        }
                        Instr::MonitorExit { obj } => {
                            let o = tri!(check_null(r!(obj)));
                            if !heap.monitor_exit(o, MUTATOR_THREAD) {
                                tri!(Err(Fault::Trap(Trap::IllegalMonitorState)));
                            }
                        }
                        Instr::InstanceOf { dst, obj, class } => {
                            let is = match r!(obj) {
                                Value::Ref(Some(o)) => {
                                    program.is_subclass(heap.class_of(o), *class)
                                }
                                Value::Ref(None) => false,
                                Value::Int(_) => tri!(Err(Fault::Type("instanceof on int"))),
                            };
                            r!(dst) = Value::Int(i64::from(is));
                        }
                        Instr::CheckCast { obj, class } => match r!(obj) {
                            Value::Ref(None) => {}
                            Value::Ref(Some(o)) => {
                                if !program.is_subclass(heap.class_of(o), *class) {
                                    tri!(Err(Fault::Trap(Trap::ClassCast)));
                                }
                            }
                            Value::Int(_) => tri!(Err(Fault::Type("checkcast on int"))),
                        },
                        Instr::Safepoint => {
                            // Poll the yield flag; in this simulation it is never set.
                        }
                        Instr::Intrin { kind, dst, args } => {
                            let out = match kind {
                                Intrinsic::Checksum => {
                                    env.checksum_push(r!(args[0]).encode());
                                    None
                                }
                                Intrinsic::NextRandom => Some(Value::Int(env.next_random())),
                                Intrinsic::YieldFlag => Some(Value::Int(0)),
                            };
                            if let (Some(d), Some(v)) = (dst, out) {
                                r!(d) = v;
                            }
                        }
                        Instr::Marker { id } => env.hit_marker(*id),
                    }
                    pc += 1;
                }
            }
        };

        let result = result.map_err(|(e, resume)| {
            // Take back the unexecuted rest of the current run, then release
            // the monitor of every synchronized frame, innermost first.
            fuel += (limit - resume) as u64;
            if resume < end {
                let c = &mut counters.pcs[flat + resume].exec;
                *c = c.wrapping_sub(1);
            }
            for f in frames.iter().rev().filter(|f| f.sync) {
                if let Value::Ref(Some(recv)) = regs[f.regs as usize] {
                    heap.monitor_exit(recv, MUTATOR_THREAD);
                }
            }
            e
        });
        self.fuel = fuel;
        result
    }
}

/// A failed check, before it is placed at a method and pc.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Trap(Trap),
    Type(&'static str),
}

impl Fault {
    fn at(self, method: MethodId, pc: usize) -> VmError {
        match self {
            Fault::Trap(trap) => VmError::Trap { trap, method, pc },
            Fault::Type(what) => VmError::TypeMismatch { method, pc, what },
        }
    }
}

#[inline(always)]
fn eval_cmp(op: CmpOp, a: Value, b: Value) -> Result<bool, Fault> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => Ok(op.eval_int(x, y)),
        (Value::Ref(x), Value::Ref(y)) => match op {
            CmpOp::Eq => Ok(x == y),
            CmpOp::Ne => Ok(x != y),
            _ => Err(Fault::Type("ordered cmp on refs")),
        },
        _ => Err(Fault::Type("cmp int vs ref")),
    }
}

#[inline]
fn require_int(v: Value) -> Result<i64, Fault> {
    match v {
        Value::Int(x) => Ok(x),
        Value::Ref(_) => Err(Fault::Type("expected int")),
    }
}

#[inline]
fn check_null(v: Value) -> Result<ObjId, Fault> {
    match v {
        Value::Ref(Some(o)) => Ok(o),
        Value::Ref(None) => Err(Fault::Trap(Trap::NullPointer)),
        Value::Int(_) => Err(Fault::Type("expected ref")),
    }
}

#[inline]
fn check_array(heap: &Heap, arr: Value, idx: Value) -> Result<(ObjId, u32), Fault> {
    let o = check_null(arr)?;
    let i = require_int(idx)?;
    let len = heap
        .array_len(o)
        .ok_or(Fault::Type("array op on non-array"))?;
    if i < 0 || i as usize >= len {
        return Err(Fault::Trap(Trap::OutOfBounds));
    }
    Ok((o, i as u32))
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
        assert_eq!(i.steps, 1000);
    }

    /// A fuel limit that lands inside a straight-line run stops at the same
    /// step as a step-at-a-time interpreter would: every pc before the stop
    /// counts one more execution than every pc from it on.
    #[test]
    fn fuel_exhaustion_mid_run_is_exact() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("main", 0);
        let i = m.imm(0); // pc 0
        let one = m.imm(1); // pc 1
        let head = m.new_label();
        m.bind(head);
        for _ in 0..5 {
            m.bin(BinOp::Add, i, i, one); // pcs 2..=6
        }
        m.jump(head); // pc 7
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        // 2 set-up steps, 10 full iterations of 6, then 3 adds.
        let fuel = 2 + 10 * 6 + 3;
        let mut interp = Interp::new(&p).with_profiling();
        interp.set_fuel(fuel);
        assert_eq!(interp.run(&[]).unwrap_err(), VmError::FuelExhausted);
        assert_eq!(interp.steps, fuel);
        let prof = interp.profile.method(entry).unwrap();
        let exec: Vec<u64> = (0..8).map(|pc| prof.exec_count(pc)).collect();
        assert_eq!(exec, [1, 1, 11, 11, 11, 10, 10, 10]);
        // The budget is spent: the next run stops before its first step.
        assert_eq!(interp.run(&[]).unwrap_err(), VmError::FuelExhausted);
        assert_eq!(interp.steps, fuel);
    }

    #[test]
    fn unbounded_recursion_overflows_at_max_depth() {
        let mut pb = ProgramBuilder::new();
        let rec = pb.declare("rec", 0);
        let mut r = pb.method("rec", 0);
        r.call(None, rec, &[]);
        r.ret(None);
        r.finish(&mut pb);
        let mut m = pb.method("main", 0);
        m.call(None, rec, &[]);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut interp = Interp::new(&p).with_profiling();
        assert_eq!(interp.run(&[]).unwrap_err(), VmError::StackOverflow);
        // `main` runs at depth 0; `rec` enters at depths 1..max_depth.
        let max_depth = interp.max_depth as u64;
        assert_eq!(
            interp.profile.method(rec).unwrap().invocations,
            max_depth - 1
        );
        assert_eq!(interp.steps, max_depth, "one call per frame");
        // Nothing below the failed call ran.
        assert_eq!(interp.profile.method(rec).unwrap().exec_count(1), 0);
    }

    /// A trap two synchronized frames deep returns that trap, releases both
    /// monitors, and leaves every frame's counts at the pc it stopped on.
    #[test]
    fn trap_in_synchronized_callee_unwinds_monitors_and_counts() {
        let mut pb = ProgramBuilder::new();
        let c = pb.add_class("C", None, &["f"]);
        let fld = pb.field(c, "f");
        let mut inner = pb.method("C.inner", 1);
        inner.set_synchronized();
        let null = inner.reg();
        inner.const_null(null); // pc 0
        let v = inner.reg();
        inner.get_field(v, null, fld); // pc 1: traps
        inner.bin(BinOp::Add, v, v, v); // pc 2
        inner.ret(Some(v)); // pc 3
        let inner = inner.finish(&mut pb);
        let mut outer = pb.method("C.outer", 1);
        outer.set_synchronized();
        let got = outer.reg();
        outer.call(Some(got), inner, &[outer.arg(0)]); // pc 0
        outer.put_field(outer.arg(0), fld, got); // pc 1
        outer.ret(None); // pc 2
        let outer = outer.finish(&mut pb);
        let mut m = pb.method("main", 0);
        let o = m.reg();
        m.new_obj(o, c);
        m.call(None, outer, &[o]);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let p = pb.finish(entry);
        let mut interp = Interp::new(&p).with_profiling();
        assert_eq!(
            interp.run(&[]).unwrap_err(),
            VmError::Trap {
                trap: Trap::NullPointer,
                method: inner,
                pc: 1,
            }
        );
        assert_eq!(interp.heap.lock_word(ObjId(0)), 0);
        assert_eq!(interp.heap.lock_count(ObjId(0)), 0);
        assert_eq!(interp.steps, 5, "new, call, call, const_null, get_field");
        let counts = |m: MethodId, n: usize| -> Vec<u64> {
            let prof = interp.profile.method(m).unwrap();
            (0..n).map(|pc| prof.exec_count(pc)).collect()
        };
        assert_eq!(counts(inner, 4), [1, 1, 0, 0]);
        assert_eq!(counts(outer, 3), [1, 0, 0]);
        assert_eq!(counts(entry, 3), [1, 1, 0]);
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
