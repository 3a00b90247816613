//! Golden digest of the compiled IR.
//!
//! Every program is profiled at seed 7 and compiled under the four paper
//! configurations plus `atomic+forced-mono`; the test folds `Func::display`
//! of every compiled method, in `MethodId` order, into one FNV-1a digest and
//! compares it with a constant.
//!
//! This is the tripwire for compile-time work: a change that only makes the
//! compiler faster (or restructures it) must leave the constant alone. The
//! constant changes only with a change that means to change compiled code —
//! a new optimization, a different formation decision, a renumbering — and
//! such a change updates it here and says why.

use hasp_opt::{compile_program, CompilerConfig};
use hasp_vm::{Env, Interp};
use hasp_workloads::all_workloads;

/// The digest of the compiled IR (see the module documentation).
const GOLDEN: u64 = 0x40de_2799_ae5a_bb69;

const SEED: u64 = 7;

/// Folds `text` into a running 64-bit FNV-1a hash.
fn fnv1a(hash: &mut u64, text: &str) {
    for b in text.bytes() {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

#[test]
fn compiled_ir_matches_golden_digest() {
    let mut configs = CompilerConfig::paper_configs();
    configs.push(CompilerConfig::atomic_forced_mono());
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for w in all_workloads() {
        let mut interp = Interp::new(&w.program).with_profiling();
        interp.env = Env::new(SEED);
        interp.set_fuel(w.fuel);
        interp
            .run(&[])
            .unwrap_or_else(|e| panic!("{} failed to interpret: {e}", w.name));
        for cfg in &configs {
            let mut methods: Vec<_> = compile_program(&w.program, &interp.profile, cfg)
                .into_iter()
                .collect();
            methods.sort_by_key(|(m, _)| *m);
            for (_, c) in &methods {
                fnv1a(&mut hash, &c.func.display());
            }
        }
    }
    assert_eq!(
        hash, GOLDEN,
        "compiled IR changed: digest {hash:#018x}, golden {GOLDEN:#018x}"
    );
}
