//! Runtime values and object identities.

use std::fmt;

/// Identity of a heap object.
///
/// `ObjId` is an index into the [`Heap`](crate::heap::Heap)'s object table. It
/// is stable for the lifetime of the heap (there is no moving collector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ObjId(pub u32);

impl fmt::Display for ObjId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A runtime value: either a 64-bit integer or a (possibly null) reference.
///
/// The VM is deliberately Java-like: references are distinct from integers so
/// that null checks and type checks are meaningful, but there is a single
/// integer type to keep the bytecode small.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Value {
    /// A 64-bit signed integer.
    Int(i64),
    /// A reference; `None` is Java's `null`.
    Ref(Option<ObjId>),
}

impl Value {
    /// The null reference.
    pub const NULL: Value = Value::Ref(None);

    /// Returns the integer payload.
    ///
    /// # Panics
    /// Panics if the value is a reference. The bytecode verifier and the
    /// interpreter's trap machinery ensure well-typed programs never hit this.
    pub fn as_int(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Ref(r) => panic!("expected int, found reference {r:?}"),
        }
    }

    /// Returns the reference payload (which may be null).
    ///
    /// # Panics
    /// Panics if the value is an integer.
    pub fn as_ref_val(self) -> Option<ObjId> {
        match self {
            Value::Ref(r) => r,
            Value::Int(v) => panic!("expected reference, found int {v}"),
        }
    }

    /// True if the value is a reference (null or not).
    pub fn is_ref(self) -> bool {
        matches!(self, Value::Ref(_))
    }

    /// A canonical 64-bit encoding used for checksumming and the undo log.
    ///
    /// Integers map to themselves; references map to their object index plus a
    /// tag in the upper bits; null maps to a distinguished constant.
    #[inline]
    pub fn encode(self) -> i64 {
        match self {
            Value::Int(v) => v,
            Value::Ref(None) => i64::MIN,
            Value::Ref(Some(ObjId(i))) => i64::MIN + 1 + i64::from(i),
        }
    }

    /// Inverse of [`Value::encode`].
    #[inline]
    pub fn decode(bits: i64) -> Value {
        if bits == i64::MIN {
            Value::Ref(None)
        } else if bits < i64::MIN + 1 + i64::from(u32::MAX) && bits > i64::MIN {
            Value::Ref(Some(ObjId((bits - (i64::MIN + 1)) as u32)))
        } else {
            Value::Int(bits)
        }
    }
}

impl Default for Value {
    fn default() -> Self {
        Value::Int(0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(v) => write!(f, "{v}"),
            Value::Ref(None) => write!(f, "null"),
            Value::Ref(Some(o)) => write!(f, "{o}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<ObjId> for Value {
    fn from(o: ObjId) -> Self {
        Value::Ref(Some(o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrip() {
        for v in [0i64, 1, -1, i64::MAX, 12345] {
            assert_eq!(Value::decode(Value::Int(v).encode()), Value::Int(v));
        }
    }

    #[test]
    fn ref_roundtrip() {
        assert_eq!(Value::decode(Value::NULL.encode()), Value::NULL);
        for i in [0u32, 1, 77, u32::MAX - 1] {
            let v = Value::Ref(Some(ObjId(i)));
            assert_eq!(Value::decode(v.encode()), v);
        }
    }

    #[test]
    fn accessors() {
        assert_eq!(Value::Int(7).as_int(), 7);
        assert_eq!(Value::Ref(Some(ObjId(3))).as_ref_val(), Some(ObjId(3)));
        assert!(Value::NULL.is_ref());
        assert!(!Value::Int(0).is_ref());
    }

    #[test]
    #[should_panic(expected = "expected int")]
    fn as_int_on_ref_panics() {
        Value::NULL.as_int();
    }
}
