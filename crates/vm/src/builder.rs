//! Builders for assembling programs in Rust code.
//!
//! The workload crate writes its "Java" in this DSL. Labels are resolved at
//! [`MethodBuilder::finish`]; methods can be forward-declared for recursion
//! and vtables.

use crate::bytecode::{BinOp, ClassId, CmpOp, FieldId, Instr, Intrinsic, MethodId, Reg, SlotId};
use crate::class::{Class, Method, Program};

/// An unresolved branch target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(u32);

/// Builds a [`Program`]: classes, vtables, and methods.
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    classes: Vec<Class>,
    methods: Vec<Option<Method>>,
    names: Vec<String>,
}

impl ProgramBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a class. `own_fields` are appended after the superclass's fields
    /// so layouts stay prefix-compatible; the vtable starts as a copy of the
    /// superclass's (override with [`ProgramBuilder::set_vtable`] /
    /// [`ProgramBuilder::override_slot`]).
    pub fn add_class(
        &mut self,
        name: &str,
        superclass: Option<ClassId>,
        own_fields: &[&str],
    ) -> ClassId {
        let (mut fields, vtable) = match superclass {
            Some(s) => {
                let sc = &self.classes[s.0 as usize];
                (sc.fields.clone(), sc.vtable.clone())
            }
            None => (Vec::new(), Vec::new()),
        };
        fields.extend(own_fields.iter().map(|s| s.to_string()));
        let id = ClassId(self.classes.len() as u32);
        self.classes.push(Class {
            name: name.to_string(),
            superclass,
            fields,
            vtable,
        });
        id
    }

    /// Field id of `name` in `class`.
    ///
    /// # Panics
    /// Panics if the class has no field of that name.
    pub fn field(&self, class: ClassId, name: &str) -> FieldId {
        let c = &self.classes[class.0 as usize];
        let i = c
            .fields
            .iter()
            .position(|f| f == name)
            .unwrap_or_else(|| panic!("class {} has no field {name}", c.name));
        FieldId(i as u16)
    }

    /// Replaces the entire vtable of `class`.
    pub fn set_vtable(&mut self, class: ClassId, methods: &[MethodId]) {
        self.classes[class.0 as usize].vtable = methods.to_vec();
    }

    /// Appends a new virtual slot to `class`'s vtable, returning its id.
    pub fn add_slot(&mut self, class: ClassId, method: MethodId) -> SlotId {
        let vt = &mut self.classes[class.0 as usize].vtable;
        vt.push(method);
        SlotId((vt.len() - 1) as u16)
    }

    /// Overrides an existing slot in `class`'s vtable.
    ///
    /// # Panics
    /// Panics if the slot does not exist (inherit or add it first).
    pub fn override_slot(&mut self, class: ClassId, slot: SlotId, method: MethodId) {
        self.classes[class.0 as usize].vtable[slot.0 as usize] = method;
    }

    /// Forward-declares a method so its id can be referenced before its body
    /// is defined.
    pub fn declare(&mut self, name: &str, argc: u16) -> MethodId {
        let id = MethodId(self.methods.len() as u32);
        self.methods.push(None);
        self.names.push(name.to_string());
        // Reserve with a stub carrying the signature; finish() replaces it.
        self.methods[id.0 as usize] = Some(Method {
            name: name.to_string(),
            argc,
            regs: argc,
            code: Vec::new(),
            opaque: false,
            synchronized: false,
        });
        id
    }

    /// Starts building a method body. If `name` was previously
    /// [`declared`](ProgramBuilder::declare), the body fills that slot;
    /// otherwise a fresh id is allocated.
    pub fn method(&mut self, name: &str, argc: u16) -> MethodBuilder {
        let id = match self.names.iter().position(|n| n == name) {
            Some(i) => MethodId(i as u32),
            None => self.declare(name, argc),
        };
        MethodBuilder {
            id,
            name: name.to_string(),
            argc,
            next_reg: argc,
            code: Vec::new(),
            labels: Vec::new(),
            patches: Vec::new(),
            opaque: false,
            synchronized: false,
        }
    }

    fn install(&mut self, id: MethodId, m: Method) {
        self.methods[id.0 as usize] = Some(m);
    }

    /// Finalizes the program with `entry` as the main method.
    ///
    /// # Panics
    /// Panics if any declared method was never defined.
    pub fn finish(self, entry: MethodId) -> Program {
        let methods: Vec<Method> = self
            .methods
            .into_iter()
            .zip(&self.names)
            .map(|(m, n)| m.unwrap_or_else(|| panic!("method {n} declared but not defined")))
            .collect();
        for (i, m) in methods.iter().enumerate() {
            assert!(
                !m.code.is_empty() || m.opaque,
                "method {} (id {i}) has an empty body",
                m.name
            );
        }
        Program::from_parts(self.classes, methods, entry)
    }
}

/// Builds a single method's bytecode.
#[derive(Debug)]
pub struct MethodBuilder {
    id: MethodId,
    name: String,
    argc: u16,
    next_reg: u16,
    code: Vec<Instr>,
    labels: Vec<Option<usize>>,
    /// (instruction index, operand slot, label) needing patching.
    patches: Vec<(usize, usize, Label)>,
    opaque: bool,
    synchronized: bool,
}

impl MethodBuilder {
    /// The method id this builder defines.
    pub fn id(&self) -> MethodId {
        self.id
    }

    /// The `i`-th argument register.
    pub fn arg(&self, i: u16) -> Reg {
        assert!(
            i < self.argc,
            "method {} has only {} args",
            self.name,
            self.argc
        );
        Reg(i)
    }

    /// Allocates a fresh virtual register.
    pub fn reg(&mut self) -> Reg {
        let r = Reg(self.next_reg);
        self.next_reg += 1;
        r
    }

    /// Creates an unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label((self.labels.len() - 1) as u32)
    }

    /// Binds `label` to the next emitted instruction.
    ///
    /// # Panics
    /// Panics if the label is already bound.
    pub fn bind(&mut self, label: Label) {
        let slot = &mut self.labels[label.0 as usize];
        assert!(slot.is_none(), "label bound twice in {}", self.name);
        *slot = Some(self.code.len());
    }

    /// Marks the method opaque (never inlined or compiled; models classlib
    /// native methods).
    pub fn set_opaque(&mut self) {
        self.opaque = true;
    }

    /// Marks the method `synchronized` (body bracketed by monitor ops on
    /// `r0`).
    pub fn set_synchronized(&mut self) {
        assert!(self.argc >= 1, "synchronized method needs a receiver");
        self.synchronized = true;
    }

    fn emit(&mut self, i: Instr) {
        self.code.push(i);
    }

    /// `dst = value`
    pub fn const_(&mut self, dst: Reg, value: i64) {
        self.emit(Instr::Const { dst, value });
    }

    /// Fresh register holding `value`.
    pub fn imm(&mut self, value: i64) -> Reg {
        let r = self.reg();
        self.const_(r, value);
        r
    }

    /// `dst = null`
    pub fn const_null(&mut self, dst: Reg) {
        self.emit(Instr::ConstNull { dst });
    }

    /// `dst = src`
    pub fn mov(&mut self, dst: Reg, src: Reg) {
        self.emit(Instr::Move { dst, src });
    }

    /// `dst = a <op> b`
    pub fn bin(&mut self, op: BinOp, dst: Reg, a: Reg, b: Reg) {
        self.emit(Instr::Bin { op, dst, a, b });
    }

    /// `dst = (a <op> b) ? 1 : 0`
    pub fn cmp(&mut self, op: CmpOp, dst: Reg, a: Reg, b: Reg) {
        self.emit(Instr::Cmp { op, dst, a, b });
    }

    /// `if a <op> b goto target`
    pub fn branch(&mut self, op: CmpOp, a: Reg, b: Reg, target: Label) {
        let idx = self.code.len();
        self.emit(Instr::Branch {
            op,
            a,
            b,
            target: usize::MAX,
        });
        self.patches.push((idx, 0, target));
    }

    /// `goto target`
    pub fn jump(&mut self, target: Label) {
        let idx = self.code.len();
        self.emit(Instr::Jump { target: usize::MAX });
        self.patches.push((idx, 0, target));
    }

    /// `goto cases[src]`, else `default`.
    pub fn switch(&mut self, src: Reg, cases: &[Label], default: Label) {
        let idx = self.code.len();
        self.emit(Instr::Switch {
            src,
            targets: vec![usize::MAX; cases.len()],
            default: usize::MAX,
        });
        for (slot, l) in cases.iter().enumerate() {
            self.patches.push((idx, slot, *l));
        }
        self.patches.push((idx, cases.len(), default));
    }

    /// Allocates an instance of `class` into `dst`.
    pub fn new_obj(&mut self, dst: Reg, class: ClassId) {
        self.emit(Instr::New { dst, class });
    }

    /// Allocates an array of `len` elements into `dst`.
    pub fn new_array(&mut self, dst: Reg, len: Reg) {
        self.emit(Instr::NewArray { dst, len });
    }

    /// `dst = obj.field`
    pub fn get_field(&mut self, dst: Reg, obj: Reg, field: FieldId) {
        self.emit(Instr::GetField { dst, obj, field });
    }

    /// `obj.field = src`
    pub fn put_field(&mut self, obj: Reg, field: FieldId, src: Reg) {
        self.emit(Instr::PutField { obj, field, src });
    }

    /// `dst = arr[idx]`
    pub fn aload(&mut self, dst: Reg, arr: Reg, idx: Reg) {
        self.emit(Instr::ALoad { dst, arr, idx });
    }

    /// `arr[idx] = src`
    pub fn astore(&mut self, arr: Reg, idx: Reg, src: Reg) {
        self.emit(Instr::AStore { arr, idx, src });
    }

    /// `dst = arr.length`
    pub fn array_len(&mut self, dst: Reg, arr: Reg) {
        self.emit(Instr::ArrayLen { dst, arr });
    }

    /// Direct call.
    pub fn call(&mut self, dst: Option<Reg>, method: MethodId, args: &[Reg]) {
        self.emit(Instr::Call {
            dst,
            method,
            args: args.to_vec(),
        });
    }

    /// Virtual call through `slot` on `recv`.
    pub fn call_virtual(&mut self, dst: Option<Reg>, slot: SlotId, recv: Reg, args: &[Reg]) {
        self.emit(Instr::CallVirtual {
            dst,
            slot,
            recv,
            args: args.to_vec(),
        });
    }

    /// Return, optionally with a value.
    pub fn ret(&mut self, src: Option<Reg>) {
        self.emit(Instr::Return { src });
    }

    /// Monitor enter on `obj`.
    pub fn monitor_enter(&mut self, obj: Reg) {
        self.emit(Instr::MonitorEnter { obj });
    }

    /// Monitor exit on `obj`.
    pub fn monitor_exit(&mut self, obj: Reg) {
        self.emit(Instr::MonitorExit { obj });
    }

    /// `dst = obj instanceof class`
    pub fn instance_of(&mut self, dst: Reg, obj: Reg, class: ClassId) {
        self.emit(Instr::InstanceOf { dst, obj, class });
    }

    /// Checked cast of `obj` to `class`.
    pub fn check_cast(&mut self, obj: Reg, class: ClassId) {
        self.emit(Instr::CheckCast { obj, class });
    }

    /// GC safepoint poll.
    pub fn safepoint(&mut self) {
        self.emit(Instr::Safepoint);
    }

    /// Host intrinsic.
    pub fn intrin(&mut self, kind: Intrinsic, dst: Option<Reg>, args: &[Reg]) {
        self.emit(Instr::Intrin {
            kind,
            dst,
            args: args.to_vec(),
        });
    }

    /// Pushes `src` into the observable checksum.
    pub fn checksum(&mut self, src: Reg) {
        self.intrin(Intrinsic::Checksum, None, &[src]);
    }

    /// Simulation marker.
    pub fn marker(&mut self, id: u32) {
        self.emit(Instr::Marker { id });
    }

    /// Resolves labels and installs the method into the builder.
    ///
    /// # Panics
    /// Panics on unbound labels or a body that can fall off the end.
    pub fn finish(mut self, pb: &mut ProgramBuilder) -> MethodId {
        for (idx, slot, label) in std::mem::take(&mut self.patches) {
            let target = self.labels[label.0 as usize]
                .unwrap_or_else(|| panic!("unbound label in {}", self.name));
            match &mut self.code[idx] {
                Instr::Branch { target: t, .. } | Instr::Jump { target: t } => *t = target,
                Instr::Switch {
                    targets, default, ..
                } => {
                    if slot < targets.len() {
                        targets[slot] = target;
                    } else {
                        *default = target;
                    }
                }
                other => panic!("patch on non-branch {other:?}"),
            }
        }
        assert!(
            matches!(
                self.code.last(),
                Some(Instr::Return { .. }) | Some(Instr::Jump { .. }) | Some(Instr::Switch { .. })
            ),
            "method {} can fall off the end",
            self.name
        );
        let id = self.id;
        pb.install(
            id,
            Method {
                name: self.name,
                argc: self.argc,
                regs: self.next_reg,
                code: self.code,
                opaque: self.opaque,
                synchronized: self.synchronized,
            },
        );
        id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_patched() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("f", 1);
        let done = m.new_label();
        let zero = m.imm(0);
        m.branch(CmpOp::Eq, m.arg(0), zero, done);
        let one = m.imm(1);
        m.ret(Some(one));
        m.bind(done);
        m.ret(Some(zero));
        let id = m.finish(&mut pb);
        let p = pb.finish(id);
        let code = &p.method(id).code;
        match &code[1] {
            Instr::Branch { target, .. } => assert_eq!(*target, 4),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "fall off the end")]
    fn falls_off_end() {
        let mut pb = ProgramBuilder::new();
        let mut m = pb.method("bad", 0);
        let r = m.reg();
        m.const_(r, 1);
        let _ = m.finish(&mut pb);
    }

    #[test]
    fn forward_declaration_for_recursion() {
        let mut pb = ProgramBuilder::new();
        let fid = pb.declare("fact", 1);
        let mut m = pb.method("fact", 1);
        let base = m.new_label();
        let one = m.imm(1);
        m.branch(CmpOp::Le, m.arg(0), one, base);
        let n1 = m.reg();
        m.bin(BinOp::Sub, n1, m.arg(0), one);
        let rec = m.reg();
        m.call(Some(rec), fid, &[n1]);
        let out = m.reg();
        m.bin(BinOp::Mul, out, m.arg(0), rec);
        m.ret(Some(out));
        m.bind(base);
        m.ret(Some(one));
        let got = m.finish(&mut pb);
        assert_eq!(got, fid);
        let p = pb.finish(fid);
        assert_eq!(p.method(fid).name, "fact");
    }

    #[test]
    fn vtable_inheritance_and_override() {
        let mut pb = ProgramBuilder::new();
        let base_m = pb.declare("Base.get", 1);
        let sub_m = pb.declare("Sub.get", 1);
        let base = pb.add_class("Base", None, &["v"]);
        let slot = pb.add_slot(base, base_m);
        let sub = pb.add_class("Sub", Some(base), &[]);
        pb.override_slot(sub, slot, sub_m);

        for (name, id) in [("Base.get", base_m), ("Sub.get", sub_m)] {
            let mut m = pb.method(name, 1);
            m.ret(Some(m.arg(0)));
            assert_eq!(m.finish(&mut pb), id);
        }
        let mut main = pb.method("main", 0);
        main.ret(None);
        let entry = main.finish(&mut pb);
        let p = pb.finish(entry);
        assert_eq!(p.resolve_virtual(base, slot), base_m);
        assert_eq!(p.resolve_virtual(sub, slot), sub_m);
    }
}
