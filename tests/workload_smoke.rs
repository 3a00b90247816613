//! Per-workload smoke tests: every benchmark interprets cleanly, is
//! deterministic, produces a meaningful checksum, and hits each sample
//! marker exactly twice (the §5 methodology contract).

use hasp_vm::interp::Interp;
use hasp_workloads::{all_workloads, synthetic};

#[test]
fn every_workload_interprets_deterministically() {
    for w in all_workloads() {
        let mut a = Interp::new(&w.program).with_profiling();
        a.set_fuel(w.fuel);
        a.run(&[]).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut b = Interp::new(&w.program);
        b.set_fuel(w.fuel);
        b.run(&[]).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_eq!(
            a.env.checksum(),
            b.env.checksum(),
            "{} must be deterministic",
            w.name
        );
        assert_ne!(
            a.env.checksum(),
            0,
            "{} must produce observable output",
            w.name
        );

        // Marker contract: each sample's marker fires exactly twice.
        for s in &w.samples {
            assert_eq!(
                a.env.marker_count(s.marker),
                2,
                "{} marker {} must bound one sample",
                w.name,
                s.marker
            );
        }
        // Profiles exist for the entry method.
        assert!(a.profile.method(w.program.entry()).is_some(), "{}", w.name);
    }
}

#[test]
fn synthetic_scenarios_interpret_deterministically() {
    for w in [
        synthetic::add_element(5_000),
        synthetic::phase_flip(20_000, 15_000, 40),
        synthetic::postdom_checks(5_000),
    ] {
        let mut a = Interp::new(&w.program);
        a.set_fuel(w.fuel);
        a.run(&[]).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert_ne!(a.env.checksum(), 0, "{}", w.name);
    }
}

#[test]
fn workload_profiles_capture_bias() {
    // The paper's whole premise: these programs are full of strongly-biased
    // branches. Check that each workload's entry profile contains at least
    // one branch with ≥99% bias and one with meaningful two-sidedness.
    for w in all_workloads() {
        let mut interp = Interp::new(&w.program).with_profiling();
        interp.set_fuel(w.fuel);
        interp.run(&[]).unwrap();
        let entry = w.program.entry();
        let prof = interp.profile.method(entry).unwrap();
        let mut biased = 0;
        let mut executed = 0;
        for pc in 0..w.program.method(entry).code.len() {
            if let Some(bias) = prof.branch_bias(pc) {
                executed += 1;
                if !(0.01..=0.99).contains(&bias) {
                    biased += 1;
                }
            }
        }
        assert!(executed > 0, "{}", w.name);
        assert!(
            biased >= 1,
            "{}: expected at least one strongly-biased branch ({biased}/{executed})",
            w.name
        );
    }
}
