//! Suite-level gate for the coherence directory (DESIGN §17): attaching a
//! core link to a *single-core* directory must be architecturally
//! invisible. For every Table 2 workload, on both dispatch engines, a
//! directory-attached run must be *bit-identical* to a plain run — same
//! checksum, same full `RunStats` (uops, cycles, hit mix, abort counts,
//! marker snaps), sample for sample. With no other core there is nobody to
//! signal, so the directory may only ever absorb publishes; the moment the
//! hook perturbs timing, footprints, or abort behaviour, this gate trips.

use std::sync::Arc;

use hasp_experiments::{
    compile_workload, profile_workload, try_execute_compiled, try_execute_compiled_with,
    CompiledWorkload, ProfiledWorkload,
};
use hasp_hw::{CoreLink, Directory, HwConfig};
use hasp_opt::CompilerConfig;
use hasp_workloads::{all_workloads, Workload};

fn run_both(
    w: &Workload,
    profiled: &ProfiledWorkload,
    compiled: &CompiledWorkload,
    hw: &HwConfig,
) -> (u64, u64) {
    let dir = Directory::new(1);
    let plain = try_execute_compiled(w, profiled, compiled, hw)
        .unwrap_or_else(|e| panic!("{}: plain run failed: {e}", w.name));
    let (attached, link) = try_execute_compiled_with(w, profiled, compiled, hw, |m| {
        m.attach_core(CoreLink::new(Arc::clone(&dir), 0, 0));
    })
    .unwrap_or_else(|e| panic!("{}: directory-attached run failed: {e}", w.name));
    assert_eq!(
        attached.stats, plain.stats,
        "{}: directory-attached stats diverged from the plain reference",
        w.name
    );
    assert_eq!(
        attached.samples, plain.samples,
        "{}: samples diverged",
        w.name
    );
    let link = link.expect("link comes back from the attached run");
    assert_eq!(
        link.stats.drained, 0,
        "{}: a single-core directory delivered a message",
        w.name
    );
    assert_eq!(dir.signaled(), 0, "{}: single-core run signaled", w.name);
    assert_eq!(
        dir.invalidations() + dir.downgrades(),
        0,
        "{}: single-core run generated coherence traffic",
        w.name
    );
    (link.stats.published, dir.publishes())
}

/// Every suite workload under the aggressive paper configuration, on the
/// superblock engine (checksum equality is asserted inside the runner
/// against the interpreter for both runs). Also requires the gate to be
/// non-vacuous: the attached run must actually publish intent.
#[test]
fn all_workloads_identical_with_directory_attached() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let compiled = compile_workload(&w, &profiled, &CompilerConfig::atomic_aggressive());
        let (published, publishes) = run_both(&w, &profiled, &compiled, &HwConfig::baseline());
        assert!(
            published > 0 && publishes > 0,
            "{}: attached run never consulted the directory — the gate is vacuous",
            w.name
        );
    }
}

/// The per-uop reference engine reaches the cache model through
/// `Machine::step` rather than the superblock interior loop — gate that
/// leg too.
#[test]
fn per_uop_engine_identical_with_directory_attached() {
    for w in all_workloads() {
        let profiled = profile_workload(&w);
        let compiled = compile_workload(&w, &profiled, &CompilerConfig::atomic_aggressive());
        run_both(&w, &profiled, &compiled, &HwConfig::per_uop());
    }
}
