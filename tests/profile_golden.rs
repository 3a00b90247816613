//! Golden digest of the interpreter's profiles.
//!
//! Every program is profile-interpreted at seeds 7 and 4099; the test folds
//! every counter of every method, in `MethodId` order, into one FNV-1a
//! digest and compares it with a constant: whether the method has a profile
//! and its invocations, each pc's execution and (taken, not-taken) counts,
//! and its switch counts and receiver histograms in sorted order.
//!
//! This is the tripwire for interpreter work: a change that only makes the
//! interpreter faster (or restructures it) must leave the constant alone,
//! so the compiler sees identical counts. The constant changes only with a
//! change that means to change profiles — a new counter, a different
//! workload — and such a change updates it here and says why.

use hasp_vm::{Env, Interp};
use hasp_workloads::all_workloads;

/// The digest of the profiles (see the module documentation).
const GOLDEN: u64 = 0x1b0f_b53d_0365_fff3;

const SEEDS: [u64; 2] = [7, 4099];

/// Folds `words` into a running 64-bit FNV-1a hash, byte by byte.
fn fnv1a(hash: &mut u64, words: &[u64]) {
    for w in words {
        for b in w.to_le_bytes() {
            *hash ^= u64::from(b);
            *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

#[test]
fn profiles_match_golden_digest() {
    let mut hash = 0xcbf2_9ce4_8422_2325;
    for seed in SEEDS {
        for w in all_workloads() {
            let mut interp = Interp::new(&w.program).with_profiling();
            interp.env = Env::new(seed);
            interp.set_fuel(w.fuel);
            interp
                .run(&[])
                .unwrap_or_else(|e| panic!("{} failed to interpret: {e}", w.name));
            for m in w.program.method_ids() {
                let Some(p) = interp.profile.method(m) else {
                    fnv1a(&mut hash, &[0]);
                    continue;
                };
                fnv1a(&mut hash, &[1, p.invocations]);
                for pc in 0..w.program.method(m).code.len() {
                    let (taken, not_taken) = p.branch_counts(pc);
                    fnv1a(&mut hash, &[p.exec_count(pc), taken, not_taken]);
                }
                let mut switches: Vec<_> = p.switches.iter().collect();
                switches.sort();
                for (pc, counts) in switches {
                    fnv1a(&mut hash, &[*pc as u64]);
                    fnv1a(&mut hash, counts);
                }
                let mut sites: Vec<_> = p.receivers.iter().collect();
                sites.sort_by_key(|(pc, _)| **pc);
                for (pc, histogram) in sites {
                    let mut classes: Vec<_> = histogram.iter().collect();
                    classes.sort();
                    fnv1a(&mut hash, &[*pc as u64, classes.len() as u64]);
                    for (class, n) in classes {
                        fnv1a(&mut hash, &[u64::from(class.0), *n]);
                    }
                }
            }
        }
    }
    assert_eq!(
        hash, GOLDEN,
        "profiles changed: digest {hash:#018x}, golden {GOLDEN:#018x}"
    );
}
