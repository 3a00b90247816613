//! The object heap.
//!
//! Every object gets a stable simulated byte address so the hardware crate
//! can run a real cache model (64-byte lines, per-line speculative read/write
//! bits) over heap traffic. Layout per object:
//!
//! ```text
//! base + 0   class word            (not accessed by generated code)
//! base + 8   lock word             (monitor enter/exit)
//! base + 16  field 0 / array length
//! base + 24  field 1 / element 0
//! ...
//! ```

use crate::bytecode::ClassId;
use crate::value::{ObjId, Value};

/// Size in bytes of one heap word.
pub const WORD: u64 = 8;
/// Size in bytes of an object header (class word + lock word).
pub const HEADER: u64 = 2 * WORD;

/// A single mutable heap location, used by the hardware undo log to roll back
/// speculative stores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HeapCell {
    /// `object.fields[index]`
    Field(ObjId, u16),
    /// `array[index]`
    Elem(ObjId, u32),
    /// The object's monitor lock word.
    Lock(ObjId),
}

#[derive(Debug, Clone)]
struct Object {
    base: u64,
    /// Lock word: 0 = free, otherwise the owning thread id.
    lock: i64,
    /// Monitor recursion depth.
    lock_count: i64,
    class: ClassId,
    /// Arena index of the first payload word (field 0 or element 0).
    start: u32,
    /// Instance field count; 0 for arrays.
    fields: u32,
    /// Array element count; 0 for instances.
    elems: u32,
    is_array: bool,
}

/// The garbage-free object heap (allocation only; workloads are sized so
/// collection is unnecessary, as in the paper's measured samples).
///
/// Every object's fields or elements live in one flat arena of encoded
/// words ([`Value::encode`]); an object records where its payload starts.
/// The machine, whose registers hold encoded words already, loads, stores
/// and logs undo entries as plain word copies; the interpreter decodes at
/// [`Heap::get_field`] and [`Heap::array_get`].
#[derive(Debug, Clone, Default)]
pub struct Heap {
    objects: Vec<Object>,
    words: Vec<i64>,
    next_addr: u64,
}

impl Heap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Heap {
            objects: Vec::new(),
            words: Vec::new(),
            next_addr: 0x1000,
        }
    }

    /// Number of live objects.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// True if no objects have been allocated.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Allocates an instance of `class` with `nfields` zeroed fields.
    pub fn alloc_object(&mut self, class: ClassId, nfields: usize) -> ObjId {
        self.alloc(class, nfields, None)
    }

    /// Allocates an integer array of `len` zeroed elements.
    ///
    /// Arrays carry a synthetic class id of `u32::MAX`.
    pub fn alloc_array(&mut self, len: usize) -> ObjId {
        self.alloc(ClassId(u32::MAX), 0, Some(len))
    }

    fn alloc(&mut self, class: ClassId, fields: usize, array: Option<usize>) -> ObjId {
        let elems = array.unwrap_or(0);
        let payload_words = fields as u64 + array.map_or(0, |n| n as u64 + 1);
        let size = HEADER + payload_words * WORD;
        let base = self.next_addr;
        // Keep objects line-aligned-ish: round size up to a word multiple and
        // pad to avoid pathological false sharing between unrelated objects.
        self.next_addr += size.next_multiple_of(16);
        let start = self.words.len();
        self.words.resize(start + fields + elems, 0);
        // Every arena index, and so every `u32` below, fits.
        assert!(
            self.words.len() <= u32::MAX as usize,
            "heap arena exceeds 2^32 words"
        );
        let id = ObjId(self.objects.len() as u32);
        self.objects.push(Object {
            base,
            lock: 0,
            lock_count: 0,
            class,
            start: start as u32,
            fields: fields as u32,
            elems: elems as u32,
            is_array: array.is_some(),
        });
        id
    }

    /// Arena index and simulated address of `obj.fields[field]`.
    ///
    /// # Panics
    /// Panics if the field index is out of range for the object's layout
    /// (ill-formed bytecode; the builder prevents this), arrays included.
    #[inline]
    fn field_word(&self, id: ObjId, field: u16) -> (usize, u64) {
        let o = &self.objects[id.0 as usize];
        assert!(
            u32::from(field) < o.fields,
            "field {field} out of range for {id}"
        );
        (
            (o.start + u32::from(field)) as usize,
            o.base + HEADER + u64::from(field) * WORD,
        )
    }

    /// Arena index and simulated address of `arr[idx]` (element addresses
    /// skip the length word).
    ///
    /// # Panics
    /// Panics if the object is not an array or `idx` is out of bounds.
    #[inline]
    fn elem_word(&self, id: ObjId, idx: u32) -> (usize, u64) {
        let o = &self.objects[id.0 as usize];
        assert!(o.is_array, "not an array");
        assert!(idx < o.elems, "element {idx} out of bounds for {id}");
        (
            (o.start + idx) as usize,
            o.base + HEADER + WORD + u64::from(idx) * WORD,
        )
    }

    /// The dynamic class of an object.
    ///
    /// # Panics
    /// Panics if `id` is stale (never happens for ids produced by this heap).
    #[inline]
    pub fn class_of(&self, id: ObjId) -> ClassId {
        self.objects[id.0 as usize].class
    }

    /// Reads `obj.fields[field]`.
    ///
    /// # Panics
    /// Panics if the field index is out of range for the object's layout
    /// (ill-formed bytecode; the builder prevents this).
    #[inline]
    pub fn get_field(&self, id: ObjId, field: u16) -> Value {
        Value::decode(self.words[self.field_word(id, field).0])
    }

    /// Writes `obj.fields[field]`.
    #[inline]
    pub fn set_field(&mut self, id: ObjId, field: u16, v: Value) {
        let (w, _) = self.field_word(id, field);
        self.words[w] = v.encode();
    }

    /// Array length, or `None` if the object is not an array.
    #[inline]
    pub fn array_len(&self, id: ObjId) -> Option<usize> {
        let o = &self.objects[id.0 as usize];
        o.is_array.then_some(o.elems as usize)
    }

    /// Reads `arr[idx]`; the caller has already bounds-checked.
    #[inline]
    pub fn array_get(&self, id: ObjId, idx: u32) -> Value {
        Value::decode(self.words[self.elem_word(id, idx).0])
    }

    /// Writes `arr[idx]`; the caller has already bounds-checked.
    #[inline]
    pub fn array_set(&mut self, id: ObjId, idx: u32, v: Value) {
        let (w, _) = self.elem_word(id, idx);
        self.words[w] = v.encode();
    }

    /// Reads the monitor lock word (0 = free, else owner thread id).
    #[inline]
    pub fn lock_word(&self, id: ObjId) -> i64 {
        self.objects[id.0 as usize].lock
    }

    /// Monitor recursion depth.
    pub fn lock_count(&self, id: ObjId) -> i64 {
        self.objects[id.0 as usize].lock_count
    }

    /// Acquires the monitor for `thread`. Returns `false` if held by another
    /// thread (the single-mutator simulation never blocks; contention is
    /// injected by the hardware crate as conflicts instead).
    #[inline]
    pub fn monitor_enter(&mut self, id: ObjId, thread: i64) -> bool {
        let o = &mut self.objects[id.0 as usize];
        if o.lock == 0 {
            o.lock = thread;
            o.lock_count = 1;
            true
        } else if o.lock == thread {
            o.lock_count += 1;
            true
        } else {
            false
        }
    }

    /// Releases the monitor. Returns `false` on an illegal release.
    #[inline]
    pub fn monitor_exit(&mut self, id: ObjId, thread: i64) -> bool {
        let o = &mut self.objects[id.0 as usize];
        if o.lock != thread || o.lock_count <= 0 {
            return false;
        }
        o.lock_count -= 1;
        if o.lock_count == 0 {
            o.lock = 0;
        }
        true
    }

    /// Generic read of a mutable heap location (undo-log support).
    #[inline]
    pub fn read_cell(&self, cell: HeapCell) -> i64 {
        match cell {
            HeapCell::Field(o, f) => self.words[self.field_word(o, f).0],
            HeapCell::Elem(o, i) => self.words[self.elem_word(o, i).0],
            HeapCell::Lock(o) => {
                // Pack lock word and count into one loggable word.
                let obj = &self.objects[o.0 as usize];
                (obj.lock << 32) | (obj.lock_count & 0xffff_ffff)
            }
        }
    }

    /// Generic write of a mutable heap location (undo-log support).
    #[inline]
    pub fn write_cell(&mut self, cell: HeapCell, bits: i64) {
        match cell {
            HeapCell::Field(o, f) => {
                let (w, _) = self.field_word(o, f);
                self.words[w] = bits;
            }
            HeapCell::Elem(o, i) => {
                let (w, _) = self.elem_word(o, i);
                self.words[w] = bits;
            }
            HeapCell::Lock(o) => {
                let obj = &mut self.objects[o.0 as usize];
                obj.lock = bits >> 32;
                obj.lock_count = bits & 0xffff_ffff;
            }
        }
    }

    /// Simulated byte address of a heap location (for the cache model).
    #[inline]
    pub fn addr_of(&self, cell: HeapCell) -> u64 {
        let base = |o: ObjId| self.objects[o.0 as usize].base;
        match cell {
            HeapCell::Lock(o) => base(o) + WORD,
            HeapCell::Field(o, f) => base(o) + HEADER + u64::from(f) * WORD,
            // Element addresses skip the length word.
            HeapCell::Elem(o, i) => base(o) + HEADER + WORD + u64::from(i) * WORD,
        }
    }

    /// Simulated byte address of the array-length word.
    #[inline]
    pub fn addr_of_len(&self, id: ObjId) -> u64 {
        self.objects[id.0 as usize].base + HEADER
    }

    /// Simulated address and mutable storage word of `obj.fields[field]` in
    /// one object lookup — the hot-path fusion of [`Self::addr_of`] with
    /// [`Self::read_cell`]/[`Self::write_cell`] on a field cell.
    #[inline]
    pub fn field_slot(&mut self, id: ObjId, field: u16) -> (u64, &mut i64) {
        let (w, addr) = self.field_word(id, field);
        (addr, &mut self.words[w])
    }

    /// Simulated address and mutable storage word of `arr[idx]` in one
    /// object lookup; the caller has already bounds-checked.
    #[inline]
    pub fn elem_slot(&mut self, id: ObjId, idx: u32) -> (u64, &mut i64) {
        let (w, addr) = self.elem_word(id, idx);
        (addr, &mut self.words[w])
    }

    /// Simulated address of the array-length word plus the length itself,
    /// in one object lookup.
    ///
    /// # Panics
    /// Panics if the object is not an array.
    #[inline]
    pub fn len_slot(&self, id: ObjId) -> (u64, usize) {
        let o = &self.objects[id.0 as usize];
        assert!(o.is_array, "array");
        (o.base + HEADER, o.elems as usize)
    }

    /// Simulated byte address of the object header (for `New` traffic).
    #[inline]
    pub fn addr_of_header(&self, id: ObjId) -> u64 {
        self.objects[id.0 as usize].base
    }

    /// Marks the current allocation frontier (hardware checkpoint support).
    pub fn alloc_mark(&self) -> HeapMark {
        HeapMark {
            objects: self.objects.len(),
            words: self.words.len(),
            next_addr: self.next_addr,
        }
    }

    /// Discards every object allocated after `mark`, and its arena words
    /// (rollback of an aborted atomic region; such objects are only
    /// reachable from rolled-back state).
    ///
    /// # Panics
    /// Panics if the heap shrank below the mark since it was taken.
    pub fn truncate(&mut self, mark: &HeapMark) {
        assert!(self.objects.len() >= mark.objects, "heap shrank below mark");
        self.objects.truncate(mark.objects);
        self.words.truncate(mark.words);
        self.next_addr = mark.next_addr;
    }
}

/// A heap allocation frontier, used to roll back allocations performed
/// inside an aborted atomic region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapMark {
    objects: usize,
    words: usize,
    next_addr: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_and_access() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 3);
        h.set_field(o, 1, Value::Int(42));
        assert_eq!(h.get_field(o, 1), Value::Int(42));
        assert_eq!(h.get_field(o, 0), Value::Int(0));
        assert_eq!(h.class_of(o), ClassId(0));

        let a = h.alloc_array(4);
        assert_eq!(h.array_len(a), Some(4));
        h.array_set(a, 3, Value::from(o));
        assert_eq!(h.array_get(a, 3), Value::from(o));
        assert_eq!(h.array_len(o), None);
    }

    #[test]
    fn addresses_distinct_and_stable() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 2);
        let a = h.alloc_array(8);
        let f0 = h.addr_of(HeapCell::Field(o, 0));
        let f1 = h.addr_of(HeapCell::Field(o, 1));
        assert_eq!(f1 - f0, WORD);
        assert_eq!(h.addr_of(HeapCell::Lock(o)), f0 - WORD);
        let e0 = h.addr_of(HeapCell::Elem(a, 0));
        assert_eq!(e0 - h.addr_of_len(a), WORD);
        assert!(
            e0 > f1,
            "array allocated after object sits at higher addresses"
        );
    }

    #[test]
    fn monitors_nest() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 0);
        assert!(h.monitor_enter(o, 1));
        assert!(h.monitor_enter(o, 1));
        assert_eq!(h.lock_count(o), 2);
        assert!(!h.monitor_enter(o, 2), "held by thread 1");
        assert!(h.monitor_exit(o, 1));
        assert!(h.monitor_exit(o, 1));
        assert_eq!(h.lock_word(o), 0);
        assert!(!h.monitor_exit(o, 1), "not held");
    }

    #[test]
    fn cell_roundtrip() {
        let mut h = Heap::new();
        let o = h.alloc_object(ClassId(0), 1);
        for cell in [HeapCell::Field(o, 0), HeapCell::Lock(o)] {
            let old = h.read_cell(cell);
            h.write_cell(cell, 0x1234_0005);
            assert_eq!(h.read_cell(cell), 0x1234_0005);
            h.write_cell(cell, old);
            assert_eq!(h.read_cell(cell), old);
        }
        // Lock packing specifically.
        assert!(h.monitor_enter(o, 1));
        let packed = h.read_cell(HeapCell::Lock(o));
        assert!(h.monitor_exit(o, 1));
        h.write_cell(HeapCell::Lock(o), packed);
        assert_eq!(h.lock_word(o), 1);
        assert_eq!(h.lock_count(o), 1);
    }
}
