//! Property tests for the core data structures and algorithms:
//! Equation-1 boundary partitioning against brute force, the cache model's
//! speculative-bit state machine, the undo log, the heap's word arena
//! against a reference model, and histogram accounting.

use proptest::prelude::*;

use hasp_core::partition::{pi_term, select_boundaries, Candidate};
use hasp_hw::{CacheSim, Histogram, HwConfig};
use hasp_vm::bytecode::ClassId;
use hasp_vm::heap::{Heap, HeapCell, HEADER, WORD};
use hasp_vm::value::{ObjId, Value};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// The DP that minimizes Π (Equation 1) matches exhaustive search.
    #[test]
    fn equation1_dp_is_optimal(
        gaps in prop::collection::vec(1u64..300, 1..10),
        r_target in 20u64..400,
    ) {
        let mut prefix = 0;
        let mut cands = vec![Candidate { path_index: 0, prefix_ops: 0 }];
        for (i, g) in gaps.iter().enumerate() {
            prefix += g;
            cands.push(Candidate { path_index: i + 1, prefix_ops: prefix });
        }
        let chosen = select_boundaries(r_target, &cands);
        let dp_cost: f64 = chosen
            .windows(2)
            .map(|w| pi_term(r_target, cands[w[1]].prefix_ops - cands[w[0]].prefix_ops))
            .sum();
        // Brute force over all subsets containing first and last.
        let k = cands.len();
        let mut best = f64::INFINITY;
        for mask in 0u32..(1 << (k - 2)) {
            let mut idx = vec![0usize];
            for bit in 0..(k - 2) {
                if mask & (1 << bit) != 0 {
                    idx.push(bit + 1);
                }
            }
            idx.push(k - 1);
            let cost: f64 = idx
                .windows(2)
                .map(|w| pi_term(r_target, cands[w[1]].prefix_ops - cands[w[0]].prefix_ops))
                .sum();
            best = best.min(cost);
        }
        prop_assert!((dp_cost - best).abs() < 1e-6, "dp {dp_cost} vs brute {best}");
    }

    /// Commit clears all speculative bits; abort removes exactly the
    /// speculatively written lines; reads survive aborts.
    #[test]
    fn cache_speculative_state_machine(
        accesses in prop::collection::vec((0u64..64, any::<bool>()), 1..40),
    ) {
        let cfg = HwConfig::baseline();
        let mut commit_side = CacheSim::new(&cfg);
        let mut abort_side = CacheSim::new(&cfg);
        let mut wrote = std::collections::HashSet::new();
        let mut read_only = std::collections::HashSet::new();
        for (slot, is_write) in &accesses {
            let addr = 0x10_000 + slot * cfg.line_bytes;
            commit_side.access(addr, *is_write, true);
            abort_side.access(addr, *is_write, true);
            if *is_write {
                wrote.insert(addr);
                read_only.remove(&addr);
            } else if !wrote.contains(&addr) {
                read_only.insert(addr);
            }
        }
        commit_side.commit_region();
        prop_assert_eq!(commit_side.spec_lines(), 0);
        abort_side.abort_region();
        prop_assert_eq!(abort_side.spec_lines(), 0);
        // After an abort, written lines are gone; read-only lines remain.
        for addr in &read_only {
            let (level, _) = abort_side.access(*addr, false, false);
            prop_assert_eq!(level, hasp_hw::HitLevel::L1, "read line evicted by abort");
        }
        for addr in &wrote {
            let (level, _) = abort_side.access(*addr, false, false);
            prop_assert_ne!(level, hasp_hw::HitLevel::L1, "written line must be invalidated");
        }
    }

    /// Replaying an undo log in reverse restores every heap cell.
    #[test]
    fn undo_log_roundtrip(
        writes in prop::collection::vec((0u16..4, any::<i64>()), 1..50),
    ) {
        let mut heap = Heap::new();
        let obj = heap.alloc_object(ClassId(0), 4);
        for f in 0..4 {
            heap.set_field(obj, f, Value::Int(i64::from(f) * 1000));
        }
        let before: Vec<i64> =
            (0..4).map(|f| heap.read_cell(HeapCell::Field(obj, f))).collect();
        let mark = heap.alloc_mark();

        let mut undo = Vec::new();
        for (f, v) in &writes {
            let cell = HeapCell::Field(obj, *f);
            undo.push((cell, heap.read_cell(cell)));
            heap.write_cell(cell, *v);
        }
        // Speculative allocations vanish with the rollback.
        let _spec_obj = heap.alloc_object(ClassId(0), 2);
        for (cell, old) in undo.iter().rev() {
            heap.write_cell(*cell, *old);
        }
        heap.truncate(&mark);
        let after: Vec<i64> =
            (0..4).map(|f| heap.read_cell(HeapCell::Field(obj, f))).collect();
        prop_assert_eq!(before, after);
        prop_assert_eq!(heap.len(), 1);
    }

    /// The word-arena heap against a `Vec<Vec<Value>>` model: random
    /// object and array allocations, field and element stores, marks and
    /// truncations keep every value, simulated address and array length
    /// equal to the model's. A truncation restores the whole frontier —
    /// object count, arena length and next address — so the next
    /// allocation gets the same addresses and zeroed words.
    #[test]
    fn heap_arena_matches_reference_model(
        ops in prop::collection::vec((0u8..6, 0u8..8, 0u8..8, -1000i64..1000), 1..80),
    ) {
        struct Obj {
            base: u64,
            array: bool,
            slots: Vec<Value>,
        }
        let mut heap = Heap::new();
        let mut model: Vec<Obj> = Vec::new();
        let mut next_addr = 0x1000;
        let mut marks = Vec::new();
        for &(op, a, b, v) in &ops {
            match op {
                0 | 1 => {
                    let array = op == 1;
                    let n = usize::from(a) % 6;
                    let id = if array {
                        heap.alloc_array(n)
                    } else {
                        heap.alloc_object(ClassId(u32::from(b)), n)
                    };
                    prop_assert_eq!(id, ObjId(model.len() as u32));
                    let payload = n as u64 + u64::from(array);
                    model.push(Obj { base: next_addr, array, slots: vec![Value::Int(0); n] });
                    next_addr += (HEADER + payload * WORD).next_multiple_of(16);
                }
                2 => {
                    let value = match v % 3 {
                        0 if !model.is_empty() => {
                            Value::from(ObjId(v.unsigned_abs() as u32 % model.len() as u32))
                        }
                        1 => Value::NULL,
                        _ => Value::Int(v),
                    };
                    let Some(o) = model.len().checked_sub(1).map(|last| usize::from(a) % (last + 1)) else {
                        continue;
                    };
                    let obj = &mut model[o];
                    if obj.slots.is_empty() {
                        continue;
                    }
                    let i = usize::from(b) % obj.slots.len();
                    let id = ObjId(o as u32);
                    if obj.array {
                        heap.array_set(id, i as u32, value);
                    } else {
                        heap.set_field(id, i as u16, value);
                    }
                    obj.slots[i] = value;
                }
                3 => marks.push((heap.alloc_mark(), model.len(), next_addr)),
                _ => {
                    if let Some((mark, len, addr)) = marks.pop() {
                        heap.truncate(&mark);
                        prop_assert_eq!(heap.alloc_mark(), mark);
                        model.truncate(len);
                        next_addr = addr;
                    }
                }
            }
            prop_assert_eq!(heap.len(), model.len());
            for (o, obj) in model.iter().enumerate() {
                let id = ObjId(o as u32);
                prop_assert_eq!(heap.addr_of_header(id), obj.base);
                prop_assert_eq!(heap.addr_of(HeapCell::Lock(id)), obj.base + WORD);
                if obj.array {
                    prop_assert_eq!(heap.array_len(id), Some(obj.slots.len()));
                    prop_assert_eq!(heap.addr_of_len(id), obj.base + HEADER);
                } else {
                    prop_assert_eq!(heap.array_len(id), None);
                }
                for (i, want) in obj.slots.iter().enumerate() {
                    let (got, cell, addr) = if obj.array {
                        let cell = HeapCell::Elem(id, i as u32);
                        (heap.array_get(id, i as u32), cell, obj.base + HEADER + WORD)
                    } else {
                        let cell = HeapCell::Field(id, i as u16);
                        (heap.get_field(id, i as u16), cell, obj.base + HEADER)
                    };
                    prop_assert_eq!(got, *want);
                    prop_assert_eq!(heap.read_cell(cell), want.encode());
                    prop_assert_eq!(heap.addr_of(cell), addr + i as u64 * WORD);
                }
            }
        }
    }

    /// Histogram totals are conserved and the mean is exact.
    #[test]
    fn histogram_accounting(samples in prop::collection::vec(0u64..5000, 1..100)) {
        let mut h = Histogram::new(&[16, 64, 256, 1024]);
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.n, samples.len() as u64);
        prop_assert_eq!(h.counts.iter().sum::<u64>(), h.n);
        prop_assert_eq!(h.sum, samples.iter().sum::<u64>());
        prop_assert_eq!(h.max, *samples.iter().max().unwrap());
        let mean = h.sum as f64 / h.n as f64;
        prop_assert!((h.mean() - mean).abs() < 1e-9);
        // fraction_le is monotone in the bound.
        let f16 = h.fraction_le(16);
        let f64_ = h.fraction_le(64);
        let f1024 = h.fraction_le(1024);
        prop_assert!(f16 <= f64_ && f64_ <= f1024);
    }
}
