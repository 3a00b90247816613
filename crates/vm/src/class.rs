//! Classes, methods, and the program container.

use crate::bytecode::{ClassId, Instr, MethodId, SlotId};

/// A class: a named field layout plus a vtable for virtual dispatch.
#[derive(Debug, Clone)]
pub struct Class {
    /// Human-readable name (unique within a program).
    pub name: String,
    /// Superclass, if any. Field layouts are prefix-compatible with the
    /// superclass so a subclass instance can be used where the superclass is
    /// expected.
    pub superclass: Option<ClassId>,
    /// Field names; `FieldId(i)` indexes this vector (superclass fields
    /// included, first).
    pub fields: Vec<String>,
    /// Virtual method table; `SlotId(i)` indexes this vector.
    pub vtable: Vec<MethodId>,
}

impl Class {
    /// Number of fields in an instance of this class.
    pub fn field_count(&self) -> usize {
        self.fields.len()
    }
}

/// A method: bytecode plus frame metadata.
#[derive(Debug, Clone)]
pub struct Method {
    /// Human-readable name (unique within a program).
    pub name: String,
    /// Number of arguments (passed in `r0..argc-1`).
    pub argc: u16,
    /// Total number of virtual registers used by the body.
    pub regs: u16,
    /// The instruction stream.
    pub code: Vec<Instr>,
    /// True for methods that should never be considered for inlining or
    /// compilation (used to model native/classlib boundaries).
    pub opaque: bool,
    /// True for `synchronized` methods: the interpreter and JIT bracket the
    /// body with monitor enter/exit on the receiver (`r0`).
    pub synchronized: bool,
}

/// A complete program: class table, method table, and an entry method.
#[derive(Debug, Clone)]
pub struct Program {
    classes: Vec<Class>,
    methods: Vec<Method>,
    entry: MethodId,
}

impl Program {
    /// Assembles a program from parts. Called by the
    /// [`ProgramBuilder`](crate::builder::ProgramBuilder).
    pub(crate) fn from_parts(classes: Vec<Class>, methods: Vec<Method>, entry: MethodId) -> Self {
        Program {
            classes,
            methods,
            entry,
        }
    }

    /// The entry method executed by [`Interp::run`](crate::interp::Interp::run).
    pub fn entry(&self) -> MethodId {
        self.entry
    }

    /// Looks up a class by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn class(&self, id: ClassId) -> &Class {
        &self.classes[id.0 as usize]
    }

    /// Looks up a method by id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn method(&self, id: MethodId) -> &Method {
        &self.methods[id.0 as usize]
    }

    /// All method ids in definition order.
    pub fn method_ids(&self) -> impl Iterator<Item = MethodId> + '_ {
        (0..self.methods.len() as u32).map(MethodId)
    }

    /// Number of methods.
    pub fn method_count(&self) -> usize {
        self.methods.len()
    }

    /// Number of classes.
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// Resolves a virtual slot on a receiver class to a concrete method.
    ///
    /// # Panics
    /// Panics if the class has no such slot (ill-formed program).
    #[inline]
    pub fn resolve_virtual(&self, class: ClassId, slot: SlotId) -> MethodId {
        self.class(class).vtable[slot.0 as usize]
    }

    /// True if `sub` is `sup` or a (transitive) subclass of it.
    #[inline]
    pub fn is_subclass(&self, sub: ClassId, sup: ClassId) -> bool {
        let mut cur = Some(sub);
        while let Some(c) = cur {
            if c == sup {
                return true;
            }
            cur = self.class(c).superclass;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::ProgramBuilder;

    #[test]
    fn subclass_chain() {
        let mut pb = ProgramBuilder::new();
        let a = pb.add_class("A", None, &["x"]);
        let b = pb.add_class("B", Some(a), &["y"]);
        let c = pb.add_class("C", Some(b), &[]);
        let mut m = pb.method("main", 0);
        m.ret(None);
        let entry = m.finish(&mut pb);
        let prog = pb.finish(entry);

        assert!(prog.is_subclass(c, a));
        assert!(prog.is_subclass(b, a));
        assert!(prog.is_subclass(a, a));
        assert!(!prog.is_subclass(a, b));
        assert_eq!(prog.class(b).field_count(), 2, "inherits A's field");
    }
}
